package radio

// Equivalence tests for the engine's alternative code paths: the batch
// decision fast path (BatchBroadcaster / BatchGossiper) and the
// receiver-sharded parallel delivery kernel must be bit-identical to the
// scalar/serial paths.

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// pulse is a minimal BatchBroadcaster obeying the shared-draw contract: the
// transmitter set is drawn once per round in BeginRound; ShouldTransmit and
// AppendTransmitters both read it.
type pulse struct {
	q        float64
	n        int
	r        *rng.RNG
	informed []graph.NodeID
	pending  []graph.NodeID
	txRound  []int
}

func (p *pulse) Name() string { return "pulse" }
func (p *pulse) Begin(n int, src graph.NodeID, r *rng.RNG) {
	p.n = n
	p.r = r
	p.informed = p.informed[:0]
	p.txRound = make([]int, n)
}
func (p *pulse) BeginRound(round int) {
	p.pending = p.pending[:0]
	s := p.r.SkipSample(len(p.informed), p.q)
	for i, ok := s.Next(); ok; i, ok = s.Next() {
		v := p.informed[i]
		p.pending = append(p.pending, v)
		p.txRound[v] = round
	}
}
func (p *pulse) ShouldTransmit(round int, v graph.NodeID) bool { return p.txRound[v] == round }
func (p *pulse) AppendTransmitters(_ int, _ []graph.NodeID, dst []graph.NodeID) []graph.NodeID {
	return append(dst, p.pending...)
}
func (p *pulse) OnInformed(_ int, v graph.NodeID) { p.informed = append(p.informed, v) }
func (p *pulse) Quiesced(int) bool                { return false }

func resultsEqual(a, b *Result) bool {
	if a.Rounds != b.Rounds || a.InformedRound != b.InformedRound ||
		a.Informed != b.Informed || a.TotalTx != b.TotalTx ||
		a.MaxNodeTx != b.MaxNodeTx || a.Collisions != b.Collisions ||
		len(a.PerNodeTx) != len(b.PerNodeTx) || len(a.History) != len(b.History) {
		return false
	}
	for i := range a.PerNodeTx {
		if a.PerNodeTx[i] != b.PerNodeTx[i] {
			return false
		}
	}
	for i := range a.History {
		if a.History[i] != b.History[i] {
			return false
		}
	}
	return true
}

func TestBatchDecisionPathMatchesScalar(t *testing.T) {
	g := graph.GNPDirected(2000, 0.004, rng.New(11))
	opt := Options{MaxRounds: 400, RecordHistory: true}
	run := func() *Result { return RunBroadcast(g, 0, &pulse{q: 0.2}, rng.New(99), opt) }

	batch := run()
	SetEngineOverrides(EngineOverrides{ScalarDecisions: true})
	scalar := run()
	SetEngineOverrides(EngineOverrides{})
	if !resultsEqual(batch, scalar) {
		t.Fatalf("batch and scalar decision paths diverge:\nbatch  %+v\nscalar %+v", batch, scalar)
	}
	// Determinism of the batch path itself.
	if again := run(); !resultsEqual(batch, again) {
		t.Fatal("batch path not deterministic across runs")
	}
}

func TestScratchSessionsMatchFreshSessions(t *testing.T) {
	// Reusing a Scratch across trials must not leak state between runs.
	sc := NewScratch()
	g1 := graph.GNPDirected(600, 0.01, rng.New(41))
	g2 := graph.GNPDirected(600, 0.02, rng.New(42))
	g3 := graph.GNPDirected(300, 0.05, rng.New(43))
	opt := Options{MaxRounds: 200, RecordHistory: true}
	for i, g := range []*graph.Digraph{g1, g2, g3, g1} {
		fresh := RunBroadcast(g, 0, &pulse{q: 0.15}, rng.New(uint64(i)), opt)
		reused := RunBroadcastWith(sc, g, 0, &pulse{q: 0.15}, rng.New(uint64(i)), opt)
		if !resultsEqual(fresh, reused) {
			t.Fatalf("run %d: scratch-backed session differs from fresh session", i)
		}
	}
}

// pulseGossip is pulse's gossip twin.
type pulseGossip struct {
	q       float64
	n       int
	r       *rng.RNG
	pending []graph.NodeID
	txRound []int
}

func (p *pulseGossip) Name() string { return "pulse-gossip" }
func (p *pulseGossip) Begin(n int, r *rng.RNG) {
	p.n = n
	p.r = r
	p.txRound = make([]int, n)
}
func (p *pulseGossip) BeginRound(round int) {
	p.pending = p.pending[:0]
	s := p.r.SkipSample(p.n, p.q)
	for i, ok := s.Next(); ok; i, ok = s.Next() {
		p.pending = append(p.pending, graph.NodeID(i))
		p.txRound[i] = round
	}
}
func (p *pulseGossip) ShouldTransmit(round int, v graph.NodeID) bool { return p.txRound[v] == round }
func (p *pulseGossip) AppendTransmitters(_ int, dst []graph.NodeID) []graph.NodeID {
	return append(dst, p.pending...)
}

func TestGossipBatchPathMatchesScalar(t *testing.T) {
	g := graph.GNPDirected(300, 0.03, rng.New(51))
	opt := GossipOptions{MaxRounds: 500, RecordHistory: true, StopWhenComplete: true}
	run := func() *GossipResult { return RunGossip(g, &pulseGossip{q: 0.1}, rng.New(7), opt) }

	batch := run()
	SetEngineOverrides(EngineOverrides{ScalarDecisions: true})
	scalar := run()
	SetEngineOverrides(EngineOverrides{})
	if batch.Rounds != scalar.Rounds || batch.CompleteRound != scalar.CompleteRound ||
		batch.TotalTx != scalar.TotalTx || batch.KnownPairs != scalar.KnownPairs ||
		batch.MaxNodeTx != scalar.MaxNodeTx {
		t.Fatalf("gossip batch/scalar diverge:\nbatch  %+v\nscalar %+v", batch, scalar)
	}
	for i := range batch.PerNodeTx {
		if batch.PerNodeTx[i] != scalar.PerNodeTx[i] {
			t.Fatalf("per-node tx differ at %d", i)
		}
	}
}
