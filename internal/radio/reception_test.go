package radio

// Tests of the pluggable channel layer: every reception model must be
// engine-configuration invariant (lossy and jamming runs ride every kernel
// and the silent-skip fast path), deterministic across session segmentation
// (hashed draws), distributed at its nominal rate, and correct on
// handcrafted capture/veto instances.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/rng"
)

// receptionForcings is the full engine matrix the channel layer must be
// invariant under (the race CI leg runs this file's matrix tests).
var receptionForcings = []struct {
	name string
	o    EngineOverrides
}{
	{"default", EngineOverrides{}},
	{"scalar", EngineOverrides{ScalarDecisions: true}},
	{"push", EngineOverrides{Kernel: KernelPush}},
	{"pull", EngineOverrides{Kernel: KernelPull}},
	{"dense", EngineOverrides{Kernel: KernelDense}},
	{"noskip", EngineOverrides{DisableSkip: true}},
	{"scalar-pull-noskip", EngineOverrides{ScalarDecisions: true, Kernel: KernelPull, DisableSkip: true}},
}

// TestChannelModelForcingsBitIdentical is the channel-layer counterpart of
// TestEngineConfigurationsBitIdentical: every reception model must produce
// identical trajectories, transmissions and energy under every kernel,
// decision-path and skip forcing.
func TestChannelModelForcingsBitIdentical(t *testing.T) {
	defer SetEngineOverrides(EngineOverrides{})

	channels := map[string]func() Options{
		"lossy": func() Options { return Options{MaxRounds: 2500, Reception: LossyChannel(0.25)} },
		"fade":  func() Options { return Options{MaxRounds: 2500, Reception: Fade(0.2)} },
		"jam":   func() Options { return Options{MaxRounds: 2500, Reception: Jam(0.15)} },
		"sinr":  func() Options { return Options{MaxRounds: 2500, Reception: SINRThreshold(0.5, 0.1)} },
	}
	for gname, g := range sparseTestGraphs(t) {
		for cname, mkOpt := range channels {
			for _, meter := range []bool{false, true} {
				run := func() *Result {
					opt := mkOpt()
					if meter {
						opt.Energy = &energy.Spec{Model: energy.CC2420(), Budget: 150}
					}
					return RunBroadcast(g, 0, &sbern{q: 0.02}, rng.New(42), opt)
				}
				SetEngineOverrides(EngineOverrides{})
				base := run()
				if base.Informed < g.N()/2 {
					t.Fatalf("%s/%s: only %d informed; workload not representative", gname, cname, base.Informed)
				}
				label := gname + "/" + cname
				if meter {
					label += "/budget"
				}
				for _, cfg := range receptionForcings[1:] {
					SetEngineOverrides(cfg.o)
					assertSameResult(t, label+"/"+cfg.name, base, run())
				}
				SetEngineOverrides(EngineOverrides{})
			}
		}
	}
}

// TestDutyCycleForcingsBitIdentical: duty-cycled listeners must compose
// exactly with every engine forcing — in particular the silent-span skip
// (schedule spans settle closed-form) and the death heap (budgeted run).
func TestDutyCycleForcingsBitIdentical(t *testing.T) {
	defer SetEngineOverrides(EngineOverrides{})

	scheds := []energy.DutyCycle{
		{Period: 2, On: 1},
		{Period: 4, On: 1, Stagger: true},
		{Period: 5, On: 2, Offset: 3, Stagger: true},
	}
	for gname, g := range sparseTestGraphs(t) {
		for _, sched := range scheds {
			for _, budget := range []float64{0, 150} {
				sched := sched
				run := func() *Result {
					return RunBroadcast(g, 0, &sbern{q: 0.02}, rng.New(21), Options{
						MaxRounds: 2500,
						Energy:    &energy.Spec{Model: energy.CC2420(), Budget: budget, Schedule: &sched},
					})
				}
				SetEngineOverrides(EngineOverrides{})
				base := run()
				if base.Informed < g.N()/2 {
					t.Fatalf("%s/%+v: only %d informed; workload not representative", gname, sched, base.Informed)
				}
				for _, cfg := range receptionForcings[1:] {
					SetEngineOverrides(cfg.o)
					assertSameResult(t, gname+"/"+cfg.name, base, run())
				}
				SetEngineOverrides(EngineOverrides{})
			}
		}
	}
}

// TestFadeDeterministicAcrossSegments pins resume determinism: hashed
// channel draws are a pure function of (session seed, round, receiver), so
// splitting one session into many Run segments — the campaign-resume and
// mobility-epoch pattern — must reproduce the single-run trajectory exactly.
func TestFadeDeterministicAcrossSegments(t *testing.T) {
	for gname, g := range sparseTestGraphs(t) {
		for cname, model := range map[string]ReceptionModel{
			"fade":  Fade(0.25),
			"lossy": LossyChannel(0.25),
			"jam":   Jam(0.2),
		} {
			single := func() *Result {
				sess := NewBroadcastSession(g.N(), 0, &sbern{q: 0.03}, rng.New(9))
				return sess.Run(g, Options{MaxRounds: 600, Reception: model})
			}
			segmented := func() *Result {
				sess := NewBroadcastSession(g.N(), 0, &sbern{q: 0.03}, rng.New(9))
				var res *Result
				for seg := 0; seg < 6; seg++ {
					res = sess.Run(g, Options{MaxRounds: 100, Reception: model})
				}
				return res
			}
			a, b := single(), segmented()
			if a.Informed != b.Informed || a.TotalTx != b.TotalTx || a.MaxNodeTx != b.MaxNodeTx {
				t.Fatalf("%s/%s: one 600-round run and 6×100-round segments diverge: %+v vs %+v",
					gname, cname, a, b)
			}
		}
	}
}

// TestChanDrawPure: the determinism contract of the draw function itself —
// equal inputs collide, any argument change decorrelates, and the draw does
// not depend on evaluation order (it is a pure hash, not a stream).
func TestChanDrawPure(t *testing.T) {
	if chanDraw(1, 2, 3, 4) != chanDraw(1, 2, 3, 4) {
		t.Fatal("chanDraw is not a function of its arguments")
	}
	seen := map[uint64]bool{chanDraw(1, 2, 3, 4): true}
	for _, alt := range [][4]uint64{{9, 2, 3, 4}, {1, 9, 3, 4}, {1, 2, 9, 4}, {1, 2, 3, 9}} {
		d := chanDraw(alt[0], alt[1], alt[2], alt[3])
		if seen[d] {
			t.Fatalf("chanDraw%v aliases a previous draw", alt)
		}
		seen[d] = true
	}
	if pThreshold(0) != 0 {
		t.Fatal("pThreshold(0) must veto nothing")
	}
}

// TestSINRCaptureSemantics drives the capture rule through a handcrafted
// star: with K = 2 (beta 0.5, noise 0.1), two concurrent in-signals decode
// and three collide; the binary rule collides at two.
func TestSINRCaptureSemantics(t *testing.T) {
	// Star: 1, 2, 3 → 0.
	g := graph.FromEdges(4, [][2]graph.NodeID{{1, 0}, {2, 0}, {3, 0}})
	informed := NewBitset(4)
	for _, v := range []graph.NodeID{1, 2, 3} {
		informed.Set(v)
	}
	capture := SINRThreshold(0.5, 0.1).resolve(1)
	if capture.maxHits != 2 {
		t.Fatalf("SINRThreshold(0.5, 0.1) resolves to K=%d, want 2", capture.maxHits)
	}
	st := newDeliveryState(4)
	check := func(caps channelCaps, txs []graph.NodeID, wantDelivered, wantCollisions int) {
		t.Helper()
		d, c := st.deliver(g, 1, txs, informed, caps)
		if len(d) != wantDelivered || c != wantCollisions {
			t.Fatalf("txs %v caps{K=%d}: delivered %d collisions %d, want %d/%d",
				txs, caps.maxHits, len(d), c, wantDelivered, wantCollisions)
		}
	}
	check(channelCaps{maxHits: 1}, []graph.NodeID{1, 2}, 0, 1)                // binary: collision
	check(capture, []graph.NodeID{1, 2}, 1, 0)                                // K=2: captured
	check(capture, []graph.NodeID{1, 2, 3}, 0, 1)                             // K=2: three collide
	check(SINRThreshold(0.25, 0.1).resolve(1), []graph.NodeID{1, 2, 3}, 1, 0) // K=4
	// The pull kernel must apply the same limit.
	fr := newFrontierState(4)
	fr.reset(4)
	fr.sync(informed, 4)
	if d, _ := fr.deliver(g, 1, []graph.NodeID{1, 2}, capture); len(d) != 1 {
		t.Fatalf("pull kernel under capture: delivered %d, want 1", len(d))
	}
}

// TestSINRValidation: thresholds that admit no reception must refuse.
func TestSINRValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"beta 0":       func() { SINRThreshold(0, 0) },
		"noise eats K": func() { SINRThreshold(1, 1.5) },
		"fade 1":       func() { Fade(1) },
		"loss neg":     func() { LossyChannel(-0.1) },
		"jam 1":        func() { Jam(1.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestFadeVetoKeepsFrontier: a fade-vetoed receiver must stay uninformed
// and receive in a later clear round — i.e. the engine applies recvOK as a
// post-filter without removing the node from play.
func TestFadeVetoKeepsFrontier(t *testing.T) {
	// 0 → 1: one transmitter, one listener, repeated transmissions.
	g := graph.FromEdges(2, [][2]graph.NodeID{{0, 1}})
	p := newScripted(map[int][]graph.NodeID{1: {0}, 2: {0}, 3: {0}, 4: {0}, 5: {0}, 6: {0}})
	res := RunBroadcast(g, 0, p, rng.New(77), Options{MaxRounds: 6, Reception: Fade(0.6)})
	caps := Fade(0.6).resolve(0) // seed-independent structure: recvOK set, edgeOK nil
	if caps.recvOK == nil || caps.edgeOK != nil || caps.maxHits != 1 {
		t.Fatalf("Fade resolves to unexpected capabilities %+v", caps)
	}
	if res.Informed == 2 && res.InformedRound == 1 {
		// Possible only if round 1 was clear for node 1 under this seed;
		// nothing to assert about veto recovery then — but with p = 0.6 over
		// 6 rounds the run informing at all is the point:
		return
	}
	if res.Informed != 2 {
		t.Fatalf("listener never informed across 6 repeated transmissions (fade 0.6, seed 77); "+
			"res %+v — veto may be removing the node from the frontier", res)
	}
}

// TestChannelVetoRates pins each random model's law, not just its
// determinism: resolved for fixed seeds, the vetoes over 400 rounds × 2048
// receivers must occur at the nominal rate ρ overall (within 5σ), and the
// per-round vetoed counts must vary like Binomial(2048, ρ) — independent
// marks per receiver, the law of a per-round jam set whose size is drawn
// from Binomial(n, ρ) and whose members are a uniform subset. The sample
// variance S² of k counts has relative standard error √(2/(k-1)) around
// the binomial variance, so the 5σ band is |S²/v - 1| ≤ 5√(2/(k-1)).
// Receiver models (Fade, Jam) veto through recvOK; LossyChannel vetoes a
// per-edge draw, sampled here on one edge per receiver from a transmitter
// outside the receiver range.
func TestChannelVetoRates(t *testing.T) {
	const rounds, n = 400, 2048
	type model struct {
		name string
		mk   func(float64) ReceptionModel
	}
	models := []model{{"jam", Jam}, {"fade", Fade}, {"lossy", LossyChannel}}
	for _, m := range models {
		for _, rho := range []float64{0.05, 0.2, 0.4} {
			for _, seed := range []uint64{1, 0x5eed} {
				caps := m.mk(rho).resolve(seed)
				vetoed := func(round int, rx graph.NodeID) bool {
					if caps.recvOK != nil {
						return !caps.recvOK(round, rx)
					}
					return !caps.edgeOK(round, n, rx)
				}
				counts := make([]float64, rounds)
				total := 0.0
				for r := 1; r <= rounds; r++ {
					for v := 0; v < n; v++ {
						if vetoed(r, graph.NodeID(v)) {
							counts[r-1]++
						}
					}
					total += counts[r-1]
				}
				label := fmt.Sprintf("%s(%g)/seed=%#x", m.name, rho, seed)
				draws := float64(rounds * n)
				sigma := math.Sqrt(rho * (1 - rho) / draws)
				if frac := total / draws; math.Abs(frac-rho) > 5*sigma {
					t.Errorf("%s: veto fraction %.5f, want %g ± %.5f (5σ)", label, frac, rho, 5*sigma)
				}
				mean := total / rounds
				ss := 0.0
				for _, c := range counts {
					ss += (c - mean) * (c - mean)
				}
				s2 := ss / (rounds - 1)
				v := n * rho * (1 - rho)
				if band := 5 * math.Sqrt(2.0/(rounds-1)); math.Abs(s2/v-1) > band {
					t.Errorf("%s: per-round veto count variance %.1f, want Binomial(%d, %g) variance %.1f (±%.0f%%)",
						label, s2, n, rho, v, 100*band)
				}
			}
		}
	}
}

// TestJamReceiverBlocked: a receiver jammed in round r is not informed in
// r and stays on the pull frontier, so it is informed in the first later
// round its channel is clear. The session seed is chosen so that, of two
// listeners of one repeating transmitter, node 2 is jammed in round 1 and
// node 1 is not; every kernel forcing must then inform each listener in
// its first clear round.
func TestJamReceiverBlocked(t *testing.T) {
	defer SetEngineOverrides(EngineOverrides{})

	g := graph.FromEdges(3, [][2]graph.NodeID{{0, 1}, {0, 2}})
	script := map[int][]graph.NodeID{}
	for r := 1; r <= 40; r++ {
		script[r] = []graph.NodeID{0}
	}
	model := Jam(0.5)
	firstClear := func(caps channelCaps, v graph.NodeID) int {
		for r := 1; ; r++ {
			if caps.recvOK(r, v) {
				return r
			}
		}
	}
	var seed uint64
	var caps channelCaps
	for seed = 1; ; seed++ {
		s := NewBroadcastSession(3, 0, newScripted(script), rng.New(seed))
		caps = model.resolve(s.chanSeed)
		if firstClear(caps, 1) == 1 && firstClear(caps, 2) > 1 && firstClear(caps, 2) <= 40 {
			break
		}
	}
	for _, cfg := range receptionForcings {
		SetEngineOverrides(cfg.o)
		p := newScripted(script)
		res := RunBroadcast(g, 0, p, rng.New(seed), Options{MaxRounds: 40, Reception: model})
		for _, v := range []graph.NodeID{1, 2} {
			if want := firstClear(caps, v); p.informed[v] != want {
				t.Fatalf("%s: node %d informed at round %d, want %d (its first unjammed round)",
					cfg.name, v, p.informed[v], want)
			}
		}
		if res.Informed != 3 {
			t.Fatalf("%s: informed %d, want 3", cfg.name, res.Informed)
		}
	}
}
