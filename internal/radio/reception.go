package radio

// The pluggable channel layer. The paper's reception rule — a node receives
// iff exactly ONE in-neighbour transmits — is one point in a family of
// channel models; this file factors the family out of the delivery kernels
// into a ReceptionModel that every kernel (push, receiver-centric pull,
// word-parallel dense) resolves identically. It is the one spelling of
// every channel variant: per-edge erasure and random receiver jamming are
// models here, not engine options.
//
// # Determinism: hashed channel draws
//
// Channel randomness is NOT a sequential RNG stream. Every draw is a pure
// hash of (channel seed, round, endpoints): chanDraw below. That one design
// decision buys the whole engine back:
//
//   - Order independence. A sequential stream ties the draw to the order in
//     which edges are visited, which is kernel-specific — the old lossy
//     kernel had to pin the serial transmitter-ordered walk and forfeit the
//     pull kernel. Hashed draws give the same verdict for an edge
//     no matter which kernel asks, or in which order, so every kernel and
//     every SetEngineOverrides forcing stays bit-identical under every
//     model.
//   - Skip exactness. A silent round has no transmissions, hence no channel
//     questions: skipping it consumes no channel randomness, so the
//     cross-round silent-skip fast path (UniformRound) remains exact under
//     every model.
//   - Resume determinism. The draw for (round, receiver) is a function of
//     the session seed alone — re-running a session, or re-running a
//     campaign point after a crash, reproduces every fade decision without
//     replaying a stream.
//
// The channel seed derives from the session's protocol RNG exactly as the
// old lossy stream did (one Split at session start), so protocol randomness
// — and with it every binary-model result — is untouched by this layer.
//
// # Capabilities
//
// A model resolves into at most three kernel capabilities (channelCaps):
//
//   - edgeOK: per-(round, tx, rx) detection — a faded edge neither delivers
//     nor interferes. Threaded through the push and pull kernels' edge
//     walks; dense declines edge-filtered models (see denseOK).
//   - recvOK: per-(round, rx) receiver availability — an unavailable
//     receiver hears nothing this round. Applied once by the engine as a
//     post-kernel filter on the delivered list, so kernels need no changes
//     and a vetoed node stays on the pull frontier.
//   - maxHits: the largest number of concurrent above-threshold signals a
//     receiver can still decode. 1 is the paper's binary collision rule;
//     SINR capture raises it.
//
// Binary resolves to {nil, nil, 1}: the kernels' hot paths see exactly the
// pre-refactor code.
//
// # Collision counts
//
// Binary and SINRThreshold keep Result.Collisions exact (up to the pull
// kernel's uninformed-only contract). Under edgeOK models a collision means
// ">maxHits signals above threshold", counted after fading — also exact.
// Under recvOK models (Fade, Jam) the count is taken BEFORE the receiver
// veto: a receiver in a deep fade that would have heard a collision still
// counts one, since the kernels cannot see the veto. The informed
// trajectory is unaffected either way.

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// ReceptionModel describes how the channel resolves concurrent
// transmissions at a receiver. Implementations live in this package (the
// interface is sealed by resolve); select one with Options.Reception. All
// models are deterministic per (session seed, round, receiver): the engine
// derives one channel seed per session and every draw is a pure hash — see
// the package notes above for why that makes all kernels, the silent-skip
// fast path, and campaign resume exact under every model.
type ReceptionModel interface {
	// Name identifies the model in diagnostics.
	Name() string
	// resolve compiles the model into kernel capabilities for one session.
	resolve(seed uint64) channelCaps
}

// channelCaps is a resolved model: what the kernels actually consult. Nil
// function fields mean "no check" — the binary fast paths.
type channelCaps struct {
	// edgeOK reports whether the tx→rx signal of `round` is above the
	// detection threshold (nil: always).
	edgeOK func(round int, tx, rx graph.NodeID) bool
	// recvOK reports whether receiver rx can decode at all in `round`
	// (nil: always). Applied by the engine after the kernel.
	recvOK func(round int, rx graph.NodeID) bool
	// maxHits is the decoding capture limit: a receiver with 1..maxHits
	// above-threshold signals receives; more collide.
	maxHits int32
}

// chanDraw hashes (seed, round, a, b) to a uniform uint64: a splitmix64-
// style finalizer over a linear combination with distinct odd multipliers.
// Pure — the whole channel layer's determinism rests on this function.
func chanDraw(seed, round, a, b uint64) uint64 {
	x := seed + round*0x9e3779b97f4a7c15 + a*0xbf58476d1ce4e5b9 + b*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Draw domains: node-keyed models hash (rx, domain) so their draws can
// never alias an edge draw or each other.
const (
	fadeDomain uint64 = 0x66616465_66616465
	jamDomain  uint64 = 0x6a616d21_6a616d21
)

// pThreshold maps a probability to the uint64 threshold t with
// P(chanDraw < t) = p (up to float64 resolution). Requires p in [0, 1).
func pThreshold(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	// p < 1 keeps the product strictly below 2^64, so the conversion is
	// exact-range.
	return uint64(p * 18446744073709551616.0)
}

// probPanic validates a model probability parameter.
func probPanic(model string, p float64) {
	if p < 0 || p >= 1 || math.IsNaN(p) {
		panic(fmt.Sprintf("radio: %s probability %v outside [0,1)", model, p))
	}
}

// Binary returns the paper's reception model: a node receives iff exactly
// one in-neighbour transmits; two or more collide and deliver nothing. The
// default when Options.Reception is nil. Keeps exact collision counts.
func Binary() ReceptionModel { return binaryModel{} }

type binaryModel struct{}

func (binaryModel) Name() string               { return "binary" }
func (binaryModel) resolve(uint64) channelCaps { return channelCaps{maxHits: 1} }

// Fade returns a receiver-coherence fading model: in each round, each
// receiver is independently in a deep fade with probability p, hearing
// nothing that round (neither deliveries nor interference — its whole
// coherence interval is below the detection threshold). Deterministic per
// (seed, round, receiver). Collision counts are taken before the fade veto
// (see the package notes).
func Fade(p float64) ReceptionModel {
	probPanic("Fade", p)
	return fadeModel{p: p}
}

type fadeModel struct{ p float64 }

func (m fadeModel) Name() string { return fmt.Sprintf("fade(%g)", m.p) }
func (m fadeModel) resolve(seed uint64) channelCaps {
	if m.p == 0 {
		return channelCaps{maxHits: 1}
	}
	thresh := pThreshold(m.p)
	return channelCaps{
		maxHits: 1,
		recvOK: func(round int, rx graph.NodeID) bool {
			return chanDraw(seed, uint64(round), uint64(rx), fadeDomain) >= thresh
		},
	}
}

// LossyChannel returns the per-edge fading model: each (transmitter,
// receiver) delivery of a round is independently lost with probability
// loss, in which case the signal neither delivers nor interferes at that
// receiver. Hashed per (seed, round, tx, rx), so lossy runs use the pull
// kernel and silent-round skipping. Collision counts are exact over the
// surviving signals.
func LossyChannel(loss float64) ReceptionModel {
	probPanic("LossyChannel", loss)
	return lossyModel{loss: loss}
}

type lossyModel struct{ loss float64 }

func (m lossyModel) Name() string { return fmt.Sprintf("lossy(%g)", m.loss) }
func (m lossyModel) resolve(seed uint64) channelCaps {
	if m.loss == 0 {
		return channelCaps{maxHits: 1}
	}
	thresh := pThreshold(m.loss)
	return channelCaps{
		maxHits: 1,
		edgeOK: func(round int, tx, rx graph.NodeID) bool {
			return chanDraw(seed, uint64(round), uint64(tx), uint64(rx)) >= thresh
		},
	}
}

// SINRThreshold returns an equal-power capture model: with h in-neighbours
// transmitting, each signal's SINR at the receiver is 1/(h-1+noise), and
// the (shared broadcast) message decodes iff that reaches beta — i.e. iff
// 1 <= h <= K with K = floor(1 + 1/beta - noise). beta >= 1 (with small
// noise) gives K = 1, the paper's binary rule; weaker thresholds let a
// receiver capture through bounded interference. Deterministic (no channel
// randomness at all) and exact on collision counts: >K concurrent signals
// collide.
func SINRThreshold(beta, noise float64) ReceptionModel {
	if beta <= 0 || math.IsNaN(beta) {
		panic(fmt.Sprintf("radio: SINRThreshold beta %v must be positive", beta))
	}
	if noise < 0 || math.IsNaN(noise) {
		panic(fmt.Sprintf("radio: SINRThreshold noise %v must be non-negative", noise))
	}
	k := math.Floor(1 + 1/beta - noise + 1e-9)
	if k < 1 {
		panic(fmt.Sprintf("radio: SINRThreshold(beta=%v, noise=%v) admits no reception at all", beta, noise))
	}
	if k > math.MaxInt32 {
		k = math.MaxInt32
	}
	return sinrModel{beta: beta, noise: noise, k: int32(k)}
}

type sinrModel struct {
	beta, noise float64
	k           int32
}

func (m sinrModel) Name() string {
	return fmt.Sprintf("sinr(beta=%g,noise=%g)", m.beta, m.noise)
}
func (m sinrModel) resolve(uint64) channelCaps { return channelCaps{maxHits: m.k} }

// Jam returns a random-jamming model: in each round, each receiver's
// channel is independently occupied by external interference with
// probability rate — a jammed node cannot receive that round (the noise
// collides with any transmission). The marks are independent Bernoulli(rate)
// per (round, receiver), so a round's jammed count is Binomial(n, rate) and
// the jammed set, given its size, is a uniform subset. Deterministic per
// (seed, round, receiver) and skip-compatible; collision counts are taken
// before the veto.
func Jam(rate float64) ReceptionModel {
	probPanic("Jam", rate)
	return jamModel{rate: rate}
}

type jamModel struct{ rate float64 }

func (m jamModel) Name() string { return fmt.Sprintf("jam(%g)", m.rate) }
func (m jamModel) resolve(seed uint64) channelCaps {
	if m.rate == 0 {
		return channelCaps{maxHits: 1}
	}
	thresh := pThreshold(m.rate)
	return channelCaps{
		maxHits: 1,
		recvOK: func(round int, rx graph.NodeID) bool {
			return chanDraw(seed, uint64(round), uint64(rx), jamDomain) >= thresh
		},
	}
}

// filterRecv applies a recvOK capability to the delivered list in place,
// preserving order.
func filterRecv(delivered []graph.NodeID, round int, ok func(int, graph.NodeID) bool) []graph.NodeID {
	out := delivered[:0]
	for _, v := range delivered {
		if ok(round, v) {
			out = append(out, v)
		}
	}
	return out
}
