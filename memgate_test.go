package repro

// The memory-ceiling gate behind scripts/mem_gate.sh: prove that simulated
// rounds on a planet-scale implicit topology fit a pinned heap budget. The
// tests are env-gated because they deliberately allocate the full O(n)
// session state for n = 10^8 nodes (several GB): CI and local runs opt in
// with
//
//	MEM_GATE_BUDGET_MB=3072 go test -run TestImplicitScaleMemoryCeiling .
//	MEM_GATE_GEOM_BUDGET_MB=768 go test -run TestImplicitGeomMemoryCeiling .
//
// MEM_GATE_N overrides the G(n,p) leg's node count (the CI gate on small
// runners uses a reduced n with a proportionally reduced budget — the point
// is the O(n) scaling contract, which a materialized graph at the same size
// would break by an O(m/n) ≈ mean-degree factor).

import (
	"math"
	"os"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/rng"
)

func TestImplicitScaleMemoryCeiling(t *testing.T) {
	budgetMB := memGateBudget(t, "MEM_GATE_BUDGET_MB")
	n := 100_000_000
	if s := os.Getenv("MEM_GATE_N"); s != "" {
		var err error
		if n, err = strconv.Atoi(s); err != nil || n < 2 {
			t.Fatalf("MEM_GATE_N=%q: want an integer >= 2", s)
		}
	}
	p := 8 * math.Log(float64(n)) / float64(n)
	pulseMemoryCeiling(t, graph.NewImplicitGNP(n, p, 1), budgetMB)
}

// TestImplicitGeomMemoryCeiling is the geometric leg: a 2^24-node implicit
// RGG at 2·r_c on the torus (Algorithm 3's operating point) under the Auto
// kernel, so the session prices every round from the stored degrees and
// re-derives its rows from the cell grid. The heap is the graph's O(n)
// index (points, cell ids, degrees, cell offsets; see scripts/mem_gate.sh)
// plus the session state.
func TestImplicitGeomMemoryCeiling(t *testing.T) {
	budgetMB := memGateBudget(t, "MEM_GATE_GEOM_BUDGET_MB")
	const n = 1 << 24
	spec := graph.GeomSpec{N: n, Radius: 2 * graph.ConnectivityRadius(n), Torus: true}
	pulseMemoryCeiling(t, graph.NewImplicitGeom(spec, rng.New(1)), budgetMB)
}

// memGateBudget reads a leg's budget (MiB) from the environment variable
// budgetVar, skipping the test when it is unset.
func memGateBudget(t *testing.T, budgetVar string) int {
	t.Helper()
	budgetStr := os.Getenv(budgetVar)
	if budgetStr == "" {
		t.Skipf("set %s to run the memory-ceiling gate", budgetVar)
	}
	budgetMB, err := strconv.Atoi(budgetStr)
	if err != nil || budgetMB <= 0 {
		t.Fatalf("%s=%q: want a positive integer (MiB)", budgetVar, budgetStr)
	}
	return budgetMB
}

// pulseMemoryCeiling runs a fixed transmitter pulse over g and fails if the
// live heap after a final GC exceeds budgetMB. The pulse exercises the full
// delivery path — row re-derivation, collision accounting, informed
// tracking — for several rounds over a warm session, without paying for a
// complete broadcast.
func pulseMemoryCeiling(t *testing.T, g graph.Implicit, budgetMB int) {
	t.Helper()
	n := g.N()
	stride := n / 4096
	if stride < 1 {
		stride = 1
	}
	txs := make([]graph.NodeID, 0, n/stride+1)
	for v := 0; v < n; v += stride {
		txs = append(txs, graph.NodeID(v))
	}
	sess := radio.NewBroadcastSession(n, 0, &pulseSet{txs: txs}, rng.New(7))
	res := sess.Run(g, radio.Options{MaxRounds: 8})
	if res.Informed < len(txs) {
		t.Fatalf("pulse rounds informed %d nodes, want at least the %d transmitters' worth", res.Informed, len(txs))
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)
	t.Logf("n=%d: HeapAlloc %.0f MiB after %d rounds (budget %d MiB)", n, heapMB, 8, budgetMB)
	if heapMB > float64(budgetMB) {
		t.Fatalf("heap %.0f MiB exceeds the %d MiB budget: the n=%d session state is no longer O(n)-lean",
			heapMB, budgetMB, n)
	}
	runtime.KeepAlive(sess)
	runtime.KeepAlive(g)
}
