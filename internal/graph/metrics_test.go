package graph

import (
	"testing"

	"repro/internal/rng"
)

// The naive BFS family below is the original implementation (fresh buffers
// per source, a second pass over dist for the eccentricity), kept as the
// reference for the buffer-reusing one.

func naiveBFS(g *Digraph, src NodeID) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Out(u) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

func naiveEccentricity(g *Digraph, src NodeID) (ecc, reachable int) {
	for _, d := range naiveBFS(g, src) {
		if d >= 0 {
			reachable++
			if d > ecc {
				ecc = d
			}
		}
	}
	return ecc, reachable
}

func naiveDiameter(g *Digraph) (int, bool) {
	diam, strongly := 0, true
	for v := 0; v < g.N(); v++ {
		ecc, reach := naiveEccentricity(g, NodeID(v))
		if reach != g.N() {
			strongly = false
		}
		if ecc > diam {
			diam = ecc
		}
	}
	return diam, strongly
}

func naiveDiameterSampled(g *Digraph, k int, r *rng.RNG) int {
	if k >= g.N() {
		d, _ := naiveDiameter(g)
		return d
	}
	diam, _ := naiveEccentricity(g, 0)
	for _, src := range r.SampleWithoutReplacement(g.N(), k) {
		if ecc, _ := naiveEccentricity(g, NodeID(src)); ecc > diam {
			diam = ecc
		}
	}
	return diam
}

// randomDigraph draws m uniform directed edges on n nodes (duplicates
// collapse, self-loops are skipped), so sparse draws leave nodes isolated
// or unreachable and dense ones come out strongly connected.
func randomDigraph(n, m int, r *rng.RNG) *Digraph {
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		u, v := NodeID(r.Intn(n)), NodeID(r.Intn(n))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

func TestBFSFamilyMatchesNaive(t *testing.T) {
	r := rng.New(0xb75)
	graphs := []*Digraph{NewBuilder(1).Build(), Path(9), Star(6)}
	for _, n := range []int{2, 5, 30, 200} {
		for _, m := range []int{0, n / 2, n, 3 * n, n * n / 2} {
			graphs = append(graphs, randomDigraph(n, m, r))
		}
	}
	for gi, g := range graphs {
		for v := 0; v < g.N(); v++ {
			got, want := BFS(g, NodeID(v)), naiveBFS(g, NodeID(v))
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("graph %d src %d: BFS %v, want %v", gi, v, got, want)
				}
			}
			e, reach := Eccentricity(g, NodeID(v))
			we, wreach := naiveEccentricity(g, NodeID(v))
			if e != we || reach != wreach {
				t.Fatalf("graph %d src %d: Eccentricity (%d, %d), want (%d, %d)", gi, v, e, reach, we, wreach)
			}
		}
		d, strong := Diameter(g)
		wd, wstrong := naiveDiameter(g)
		if d != wd || strong != wstrong {
			t.Fatalf("graph %d: Diameter (%d, %v), want (%d, %v)", gi, d, strong, wd, wstrong)
		}
		for _, k := range []int{1, g.N() / 3, g.N()} {
			rA, rB := rng.New(uint64(gi*7+k)), rng.New(uint64(gi*7+k))
			if got, want := DiameterSampled(g, k, rA), naiveDiameterSampled(g, k, rB); got != want {
				t.Fatalf("graph %d k=%d: DiameterSampled %d, want %d", gi, k, got, want)
			}
			if rA.Uint64() != rB.Uint64() {
				t.Fatalf("graph %d k=%d: DiameterSampled RNG consumption differs", gi, k)
			}
		}
	}
}

// TestDiameterAllocs pins Diameter to its two buffers per call, however many
// BFS passes it runs.
func TestDiameterAllocs(t *testing.T) {
	for _, n := range []int{16, 256, 1024} {
		g := GNPDirected(n, 8/float64(n), rng.New(uint64(n)))
		if a := testing.AllocsPerRun(3, func() { Diameter(g) }); a > 2 {
			t.Errorf("n=%d: Diameter made %v allocations per call, want <= 2", n, a)
		}
	}
}
