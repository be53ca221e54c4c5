package graph

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// builderGNP is the original Builder-based G(n,p) construction, kept here as
// the reference for the sort-free CSR fast path.
func builderGNP(n int, p float64, r *rng.RNG) *Digraph {
	b := NewBuilder(n)
	if p == 0 || n == 1 {
		return b.Build()
	}
	total := uint64(n) * uint64(n-1)
	if p == 1 {
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v {
					b.AddEdge(NodeID(u), NodeID(v))
				}
			}
		}
		return b.Build()
	}
	idx := uint64(r.Geometric(p))
	for idx < total {
		u := NodeID(idx / uint64(n-1))
		v := NodeID(idx % uint64(n-1))
		if v >= u {
			v++
		}
		b.AddEdge(u, v)
		idx += 1 + uint64(r.Geometric(p))
	}
	return b.Build()
}

func digraphsEqual(a, b *Digraph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for v := 0; v < a.N(); v++ {
		ao, bo := a.Out(NodeID(v)), b.Out(NodeID(v))
		if len(ao) != len(bo) {
			return false
		}
		for i := range ao {
			if ao[i] != bo[i] {
				return false
			}
		}
		ai, bi := a.In(NodeID(v)), b.In(NodeID(v))
		if len(ai) != len(bi) {
			return false
		}
		for i := range ai {
			if ai[i] != bi[i] {
				return false
			}
		}
	}
	return true
}

func TestScratchGNPMatchesBuilderConstruction(t *testing.T) {
	sc := NewScratch()
	for _, tc := range []struct {
		n    int
		p    float64
		seed uint64
	}{
		{1, 0.5, 1}, {2, 0.5, 2}, {17, 0, 3}, {17, 1, 4},
		{64, 0.05, 5}, {64, 0.3, 6}, {200, 0.02, 7}, {513, 0.011, 8},
	} {
		rA := rng.New(tc.seed)
		rB := rng.New(tc.seed)
		got := sc.GNPDirected(tc.n, tc.p, rA)
		want := builderGNP(tc.n, tc.p, rB)
		if err := got.Validate(); err != nil {
			t.Fatalf("n=%d p=%v: scratch graph invalid: %v", tc.n, tc.p, err)
		}
		if !digraphsEqual(got, want) {
			t.Fatalf("n=%d p=%v seed=%d: scratch graph differs from builder graph",
				tc.n, tc.p, tc.seed)
		}
		// RNG-consumption parity: both generators must leave the stream in
		// the same state, or downstream per-trial draws would diverge.
		if rA.Uint64() != rB.Uint64() {
			t.Fatalf("n=%d p=%v seed=%d: RNG consumption differs", tc.n, tc.p, tc.seed)
		}
	}
}

func TestScratchReuseAcrossSizes(t *testing.T) {
	sc := NewScratch()
	r := rng.New(42)
	// Shrinking and regrowing must not leak state between generations.
	for _, n := range []int{128, 16, 300, 1, 64} {
		g := sc.GNPDirected(n, 0.1, r)
		if g.N() != n {
			t.Fatalf("got n=%d, want %d", g.N(), n)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// builderGNPHetero is the original Builder-based GNPHetero, kept as the
// oracle for Scratch.GNPHetero's direct CSR construction.
func builderGNPHetero(n int, pmin, pmax float64, r *rng.RNG) (*Digraph, []float64) {
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = pmin + (pmax-pmin)*r.Float64()
	}
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		p := ps[u]
		if p <= 0 {
			continue
		}
		idx := r.Geometric(p)
		for idx < n-1 {
			v := NodeID(idx)
			if v >= NodeID(u) {
				v++
			}
			b.AddEdge(NodeID(u), v)
			idx += 1 + r.Geometric(p)
		}
	}
	return b.Build(), ps
}

// materializeOracle is the original MaterializeImplicit body with its own
// counting transpose, kept as the oracle for Scratch.Materialize.
func materializeOracle(g Implicit) *Digraph {
	n := g.N()
	d := &Digraph{n: n, outOff: make([]int, n+1), inOff: make([]int, n+1)}
	for u := 0; u < n; u++ {
		d.outTo = g.AppendOut(NodeID(u), d.outTo)
		d.outOff[u+1] = len(d.outTo)
	}
	d.inTo = make([]NodeID, len(d.outTo))
	for _, v := range d.outTo {
		d.inOff[v+1]++
	}
	for v := 0; v < n; v++ {
		d.inOff[v+1] += d.inOff[v]
	}
	pos := make([]int32, n)
	for u := 0; u < n; u++ {
		for _, v := range d.outTo[d.outOff[u]:d.outOff[u+1]] {
			d.inTo[d.inOff[v]+int(pos[v])] = NodeID(u)
			pos[v]++
		}
	}
	return d
}

func TestScratchGNPHeteroMatchesBuilder(t *testing.T) {
	sc := NewScratch()
	for _, tc := range []struct {
		n          int
		pmin, pmax float64
		seed       uint64
	}{
		{1, 0.2, 0.5, 1}, {2, 0.5, 0.5, 2}, {17, 0, 0, 3}, {17, 1, 1, 4}, {40, 0, 1, 5},
		{64, 0.01, 0.2, 6}, {300, 0.005, 0.08, 7}, {2048, 0.0017, 0.0282, 8},
	} {
		rA, rB := rng.New(tc.seed), rng.New(tc.seed)
		got, gotPs := sc.GNPHetero(tc.n, tc.pmin, tc.pmax, rA)
		want, wantPs := builderGNPHetero(tc.n, tc.pmin, tc.pmax, rB)
		if err := got.Validate(); err != nil {
			t.Fatalf("n=%d [%v,%v]: scratch graph invalid: %v", tc.n, tc.pmin, tc.pmax, err)
		}
		if !digraphsEqual(got, want) {
			t.Fatalf("n=%d [%v,%v] seed=%d: scratch graph differs from builder graph",
				tc.n, tc.pmin, tc.pmax, tc.seed)
		}
		for i := range wantPs {
			if gotPs[i] != wantPs[i] {
				t.Fatalf("n=%d seed=%d: ps[%d] = %v, want %v", tc.n, tc.seed, i, gotPs[i], wantPs[i])
			}
		}
		if len(gotPs) != len(wantPs) || rA.Uint64() != rB.Uint64() {
			t.Fatalf("n=%d seed=%d: ps length or RNG consumption differs", tc.n, tc.seed)
		}
	}
}

func TestScratchMaterializeMatchesOracle(t *testing.T) {
	sc := NewScratch()
	rc := ConnectivityRadius(500)
	cases := []struct {
		name string
		g    Implicit
	}{
		{"gnp n=1", NewImplicitGNP(1, 0.5, 1)},
		{"gnp n=300", NewImplicitGNP(300, 0.03, 2)},
		{"gnp n=4096", NewImplicitGNP(4096, 8*math.Log(4096)/4096, 3)},
		{"gnp n=50 p=1", NewImplicitGNP(50, 1, 4)},
		{"geom equal radii", NewImplicitGeom(GeomSpec{N: 500, Radius: 2 * rc}, rng.New(5))},
		{"geom equal radii torus", NewImplicitGeom(GeomSpec{N: 500, Radius: 2 * rc, Torus: true}, rng.New(6))},
		{"geom mixed radii", NewImplicitGeom(GeomSpec{N: 500, Radius: rc, RadiusMax: 3 * rc}, rng.New(7))},
		{"geom mixed radii torus", NewImplicitGeom(GeomSpec{N: 200, Radius: 0.05, RadiusMax: 0.3, Torus: true}, rng.New(8))},
	}
	for _, tc := range cases {
		got := sc.Materialize(tc.g)
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: materialization invalid: %v", tc.name, err)
		}
		if !digraphsEqual(got, materializeOracle(tc.g)) {
			t.Fatalf("%s: Scratch.Materialize differs from the oracle", tc.name)
		}
	}
}

// TestScratchReuseAcrossGenerators drives one Scratch big → small → big
// through every generator it hosts, interleaved, and checks each result
// against a fresh-scratch build of the same inputs: storage sized or filled
// by an earlier call must never leak into a later graph.
func TestScratchReuseAcrossGenerators(t *testing.T) {
	sc := NewScratch()
	for i, n := range []int{1500, 40, 1, 900, 7, 2000} {
		seed := uint64(100 + i)
		p := math.Min(0.5, 6/float64(n+1))
		r := math.Min(0.3, 0.5/math.Sqrt(float64(n)))
		check := func(name string, got, want *Digraph) {
			t.Helper()
			if err := got.Validate(); err != nil {
				t.Fatalf("n=%d %s: invalid after reuse: %v", n, name, err)
			}
			if !digraphsEqual(got, want) {
				t.Fatalf("n=%d %s: reused scratch differs from a fresh build", n, name)
			}
		}
		check("GNPDirected", sc.GNPDirected(n, p, rng.New(seed)), GNPDirected(n, p, rng.New(seed)))
		gh, ps := sc.GNPHetero(n, p/4, 2*p, rng.New(seed))
		wh, wps := GNPHetero(n, p/4, 2*p, rng.New(seed))
		check("GNPHetero", gh, wh)
		if len(ps) != n || ps[n-1] != wps[n-1] {
			t.Fatalf("n=%d GNPHetero: probabilities differ after reuse", n)
		}
		spec := GeomSpec{N: n, Radius: r, RadiusMax: 2 * r, Torus: i%2 == 0}
		gg, pts := sc.Geometric(spec, rng.New(seed))
		wg, wpts := Geometric(spec, rng.New(seed))
		check("Geometric", gg, wg)
		if len(pts) != n || pts[n-1] != wpts[n-1] {
			t.Fatalf("n=%d Geometric: points differ after reuse", n)
		}
		rg, rpts := sc.RandomGeometric(n, r, 3*r, rng.New(seed))
		wr, _ := RandomGeometric(n, r, 3*r, rng.New(seed))
		check("RandomGeometric", rg, wr)
		fixed := append([]GeometricPoint(nil), rpts...)
		check("FromPoints", sc.FromPoints(fixed, true), NewScratch().FromPoints(fixed, true))
		ig := NewImplicitGNP(n, p, seed)
		check("Materialize", sc.Materialize(ig), MaterializeImplicit(ig))
	}
}
