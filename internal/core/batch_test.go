package core

// Batch-vs-scalar decision equivalence for every protocol in this package
// that implements the radio fast-path interfaces: under the shared-draw
// scheme the engine must produce bit-identical Results whichever decision
// path it takes, for every seed.

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/rng"
)

// engineForcings is the full override matrix the protocol-level equivalence
// tests pin: decision path × delivery kernel × skip. Collisions are
// excluded from the comparison (the pull kernel counts uninformed-side
// collisions only — see the radio.Result.Collisions contract); everything
// else must be bit-identical.
var engineForcings = []struct {
	name string
	o    radio.EngineOverrides
}{
	{"scalar", radio.EngineOverrides{ScalarDecisions: true}},
	{"push", radio.EngineOverrides{Kernel: radio.KernelPush}},
	{"pull", radio.EngineOverrides{Kernel: radio.KernelPull}},
	{"dense", radio.EngineOverrides{Kernel: radio.KernelDense}},
	{"noskip", radio.EngineOverrides{DisableSkip: true}},
	{"scalar-pull", radio.EngineOverrides{ScalarDecisions: true, Kernel: radio.KernelPull}},
}

// assertBatchScalarEquivalent runs the protocol factory through the engine
// under every forcing with identical seeds and compares Results: first with
// per-round history (which pins the informed trajectory and, for the
// transmitter-side kernels, exact collision counts), then without history
// so the cross-round skip path participates.
func assertBatchScalarEquivalent(t *testing.T, name string, g *graph.Digraph,
	mk func() radio.Broadcaster, seed uint64, opt radio.Options) {
	t.Helper()
	defer radio.SetEngineOverrides(radio.EngineOverrides{})
	if _, ok := mk().(radio.BatchBroadcaster); !ok {
		t.Fatalf("%s does not implement radio.BatchBroadcaster", name)
	}
	compare := func(label string, batch, alt *radio.Result, trajectory bool) {
		t.Helper()
		if batch.Rounds != alt.Rounds || batch.InformedRound != alt.InformedRound ||
			batch.Informed != alt.Informed || batch.TotalTx != alt.TotalTx ||
			batch.MaxNodeTx != alt.MaxNodeTx {
			t.Fatalf("%s seed=%d [%s]: results diverge\nbase %+v\nalt  %+v",
				name, seed, label, batch, alt)
		}
		for i := range batch.PerNodeTx {
			if batch.PerNodeTx[i] != alt.PerNodeTx[i] {
				t.Fatalf("%s seed=%d [%s]: per-node tx differ at node %d", name, seed, label, i)
			}
		}
		if !trajectory {
			return
		}
		for i := range batch.History {
			w, h := batch.History[i], alt.History[i]
			if w.Round != h.Round || w.Transmitters != h.Transmitters ||
				w.NewlyInformed != h.NewlyInformed || w.Informed != h.Informed {
				t.Fatalf("%s seed=%d [%s]: history differs at round %d: %+v vs %+v",
					name, seed, label, i, w, h)
			}
		}
	}
	for _, hist := range []bool{true, false} {
		o := opt
		o.RecordHistory = hist
		radio.SetEngineOverrides(radio.EngineOverrides{})
		base := radio.RunBroadcast(g, 0, mk(), rng.New(seed), o)
		for _, f := range engineForcings {
			radio.SetEngineOverrides(f.o)
			alt := radio.RunBroadcast(g, 0, mk(), rng.New(seed), o)
			compare(f.name, base, alt, hist)
		}
		radio.SetEngineOverrides(radio.EngineOverrides{})
	}
}

func TestCoreBatchDecisionEquivalence(t *testing.T) {
	sparse := graph.GNPDirected(1024, 0.02, rng.New(1)) // p <= n^{-2/5}
	dense := graph.GNPDirected(512, 0.2, rng.New(2))
	grid := graph.Grid2D(16, 16)
	udg := graph.RGG(512, 2*graph.ConnectivityRadius(512), true, rng.New(9))
	for _, tc := range []struct {
		name string
		g    *graph.Digraph
		mk   func() radio.Broadcaster
	}{
		{"algorithm1-sparse", sparse, func() radio.Broadcaster { return NewAlgorithm1(0.02) }},
		{"algorithm1-dense", dense, func() radio.Broadcaster { return NewAlgorithm1(0.2) }},
		{"algorithm1-ablated", sparse, func() radio.Broadcaster {
			a := NewAlgorithm1(0.02)
			a.DisablePhase2 = true
			return a
		}},
		{"algorithm1-udg", udg, func() radio.Broadcaster { return NewAlgorithm1(0.03) }},
		{"algorithm3", grid, func() radio.Broadcaster { return NewAlgorithm3(256, 30, 1) }},
		{"algorithm3-udg", udg, func() radio.Broadcaster { return NewAlgorithm3(512, 20, 1) }},
		{"tradeoff", grid, func() radio.Broadcaster { return NewTradeoff(256, 5, 1) }},
		{"unknown-diameter", grid, func() radio.Broadcaster { return NewUnknownDiameter(256, 1) }},
	} {
		for seed := uint64(0); seed < 4; seed++ {
			assertBatchScalarEquivalent(t, tc.name, tc.g, tc.mk, seed,
				radio.Options{MaxRounds: 20000})
		}
	}
}

func TestAlgorithm2BatchDecisionEquivalence(t *testing.T) {
	g := graph.GNPDirected(192, 0.08, rng.New(3))
	a := NewAlgorithm2(0.08)
	if _, ok := interface{}(a).(radio.BatchGossiper); !ok {
		t.Fatal("Algorithm2 does not implement radio.BatchGossiper")
	}
	opt := radio.GossipOptions{MaxRounds: a.RoundBudget(192), StopWhenComplete: true}
	for seed := uint64(0); seed < 3; seed++ {
		batch := radio.RunGossip(g, NewAlgorithm2(0.08), rng.New(seed), opt)
		radio.SetEngineOverrides(radio.EngineOverrides{ScalarDecisions: true})
		scalar := radio.RunGossip(g, NewAlgorithm2(0.08), rng.New(seed), opt)
		radio.SetEngineOverrides(radio.EngineOverrides{})
		if batch.Rounds != scalar.Rounds || batch.CompleteRound != scalar.CompleteRound ||
			batch.TotalTx != scalar.TotalTx || batch.KnownPairs != scalar.KnownPairs {
			t.Fatalf("seed=%d: algorithm2 batch/scalar diverge", seed)
		}
	}
}

func TestBatchPathConsumesRNGDeterministically(t *testing.T) {
	// Two identical batch runs must leave the protocol RNG in the same
	// state: the engine result AND the downstream stream position agree.
	g := graph.GNPDirected(1024, 0.02, rng.New(4))
	for seed := uint64(0); seed < 3; seed++ {
		r1, r2 := rng.New(seed), rng.New(seed)
		a := radio.RunBroadcast(g, 0, NewAlgorithm1(0.02), r1, radio.Options{MaxRounds: 20000})
		b := radio.RunBroadcast(g, 0, NewAlgorithm1(0.02), r2, radio.Options{MaxRounds: 20000})
		if a.TotalTx != b.TotalTx || a.Rounds != b.Rounds || a.Informed != b.Informed {
			t.Fatalf("seed=%d: repeated batch runs differ", seed)
		}
		if r1.Uint64() != r2.Uint64() {
			t.Fatalf("seed=%d: RNG stream positions differ after run", seed)
		}
	}
}

// TestAlgorithm1RoundProbSchedule pins the UniformRound introspection the
// engine's skip gate consults: exactly the Phase-3 rounds are uniform, at
// the Phase-3 probability.
func TestAlgorithm1RoundProbSchedule(t *testing.T) {
	a := NewAlgorithm1(0.02)
	a.Begin(1024, 0, rng.New(1))
	from, to := a.Phase3Rounds()
	for round := 1; round <= to+3; round++ {
		q, ok := a.RoundProb(round)
		wantOK := round >= from && round <= to
		if ok != wantOK {
			t.Fatalf("round %d (phase %d): RoundProb ok=%v, want %v", round, a.PhaseOfRound(round), ok, wantOK)
		}
		if ok && q != a.p3prob {
			t.Fatalf("round %d: RoundProb q=%v, want phase-3 prob %v", round, q, a.p3prob)
		}
	}
}

// TestAlgorithm2RoundProbSchedule: every gossip round is uniform at 1/d.
func TestAlgorithm2RoundProbSchedule(t *testing.T) {
	a := NewAlgorithm2(0.1)
	a.Begin(256, rng.New(1))
	for _, round := range []int{1, 7, 5000} {
		q, ok := a.RoundProb(round)
		if !ok || q != a.q {
			t.Fatalf("round %d: RoundProb = (%v, %v), want (%v, true)", round, q, ok, a.q)
		}
	}
}
