package radio

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Calibration is the startup probe's measurement of what this machine can
// actually do. GOMAXPROCS alone cannot tell a 16-vCPU machine from a cgroup
// throttled to one, so the probe measures instead of assuming, and the sweep
// planner (sweep.PlanPoint) sizes the trial-worker pool from the
// measurement. Kernel *choice* never depends on it — results stay
// bit-identical whatever the probe reports — only scheduling does.
type Calibration struct {
	GoMaxProcs int // runtime.GOMAXPROCS(0) at probe time
	NumCPU     int // runtime.NumCPU()
	// EffectiveCores is the measured parallel speedup of a CPU-bound spin
	// fanned over GOMAXPROCS goroutines (1.0 on a single-core container even
	// when NumCPU lies). Fractional: a hyperthreaded or throttled pair often
	// measures ~1.5.
	EffectiveCores float64
	// EdgeNs and DenseEdgeNs are the measured per-edge costs (nanoseconds) of
	// the serial push and word-parallel dense kernels on a synthetic dense
	// round — the constants the cost model's "outSum ≳ n" heuristic stands
	// on, recorded in bench metadata so trajectory points are comparable.
	EdgeNs      float64
	DenseEdgeNs float64
}

var (
	calOnce sync.Once
	cal     Calibration
)

// Calibrate runs the startup probe once per process and returns the cached
// measurement (~10ms of spin plus two synthetic delivery rounds). Safe for
// concurrent use.
func Calibrate() Calibration {
	calOnce.Do(func() { cal = runProbe() })
	return cal
}

func runProbe() Calibration {
	c := Calibration{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	c.EffectiveCores = measureEffectiveCores(c.GoMaxProcs)
	c.EdgeNs, c.DenseEdgeNs = measureEdgeCost()
	return c
}

// spin burns CPU for a fixed iteration count; the sink defeats dead-code
// elimination.
var spinSink uint64

func spin(iters int) uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// measureEffectiveCores times one spin quantum serially, then p goroutines
// each running the same quantum. With p real cores the parallel wall clock
// matches the serial one; on an oversubscribed container it stretches toward
// p·serial. The ratio is the usable parallelism.
func measureEffectiveCores(p int) float64 {
	if p <= 1 {
		return 1
	}
	const iters = 2_000_000
	spinSink = spin(iters / 10) // warm up scheduling/clock ramp
	best := time.Duration(1<<63 - 1)
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		spinSink = spin(iters)
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	// Each goroutine writes its own slot; the slots fold into the sink only
	// after Wait, so the spins never race on it.
	slots := make([]uint64, p)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range slots {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slots[i] = spin(iters)
		}()
	}
	wg.Wait()
	par := time.Since(t0)
	for _, x := range slots {
		spinSink ^= x
	}
	eff := float64(p) * float64(best) / float64(par)
	if eff < 1 {
		eff = 1
	}
	if eff > float64(p) {
		eff = float64(p)
	}
	return eff
}

// measureEdgeCost times the serial push and dense kernels on one synthetic
// dense round (n=4096, d=32, every node transmitting) and reports ns/edge
// for each.
func measureEdgeCost() (edgeNs, denseNs float64) {
	const (
		n = 4096
		d = 32
	)
	r := rng.New(0xca11b8a7e)
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for k := 0; k < d; k++ {
			v := int(r.Uint64n(uint64(n)))
			if v != u {
				b.AddEdge(graph.NodeID(u), graph.NodeID(v))
			}
		}
	}
	g := b.Build()
	tx := make([]graph.NodeID, n)
	for i := range tx {
		tx[i] = graph.NodeID(i)
	}
	informed := NewBitset(n)
	edges := float64(g.M())
	caps := Binary().resolve(0)

	st := newDeliveryState(n)
	dn := newDenseState(n)
	// One warm-up each, then best-of-3 to shed scheduler noise.
	st.deliver(g, 1, tx, informed, caps)
	dn.deliver(g, tx, informed)
	timeIt := func(f func()) float64 {
		best := time.Duration(1<<63 - 1)
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			f()
			if dt := time.Since(t0); dt < best {
				best = dt
			}
		}
		return float64(best.Nanoseconds()) / edges
	}
	edgeNs = timeIt(func() { st.deliver(g, 1, tx, informed, caps) })
	denseNs = timeIt(func() { dn.deliver(g, tx, informed) })
	return edgeNs, denseNs
}
