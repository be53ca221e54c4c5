package graph

import (
	"repro/internal/rng"
)

// Scratch reuses CSR adjacency storage across repeated graph generations —
// the experiment harness keeps one per worker so trial loops stop paying an
// allocation and a global edge sort per trial. It hosts every generator a
// trial loop calls: GNPDirected, GNPHetero, Geometric, RandomGeometric,
// FromPoints and Materialize (the package-level functions of the same names
// are fresh-Scratch wrappers for one-off use). The graph, and the points or
// probabilities, returned by a generation call alias the Scratch's storage
// and are valid only until the next call.
type Scratch struct {
	g   Digraph
	pos []int32   // per-node fill cursor for the in-adjacency pass
	ps  []float64 // per-node edge probabilities (GNPHetero)

	// Geometric-generation storage (see geom.go): sampled points, clustered-
	// placement parent sites, and the cell-grid spatial index (CSR buckets of
	// node ids grouped by cell).
	pts     []GeometricPoint
	parents []float64
	cellOff []int
	cellIDs []NodeID
}

// NewScratch returns an empty scratch; storage is sized on first use.
func NewScratch() *Scratch { return &Scratch{} }

func growOffsets(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growIDs(s []NodeID, n int) []NodeID {
	if cap(s) < n {
		return make([]NodeID, n)
	}
	return s[:n]
}

// begin validates n and resets the scratch digraph to n nodes with an empty
// out-adjacency, ready for rows to be appended in u order (each row closed
// by setting outOff[u+1]) and for finishIn.
func (s *Scratch) begin(n int) *Digraph {
	if n < 1 {
		panic("graph: generator needs n >= 1")
	}
	if n > 1<<31-1 {
		panic("graph: too many nodes for int32 ids")
	}
	g := &s.g
	g.n = n
	g.outOff = growOffsets(g.outOff, n+1)
	g.inOff = growOffsets(g.inOff, n+1)
	g.outTo = g.outTo[:0]
	g.outOff[0] = 0
	return g
}

// GNPDirected is graph.GNPDirected writing into the scratch's reusable
// storage. It consumes the RNG identically to the package-level function
// and produces an identical graph, but builds the CSR form directly:
// geometric skipping emits edges already sorted by (u, v), so no edge-list
// sort is needed, and the in-adjacency follows from one counting pass.
func (s *Scratch) GNPDirected(n int, p float64, r *rng.RNG) *Digraph {
	if p < 0 || p > 1 {
		panic("graph: GNP needs p in [0,1]")
	}
	g := s.begin(n)
	cur := 0
	if p > 0 && n > 1 {
		// Geometric skipping over the linear index of ordered non-diagonal
		// pairs; indices arrive in increasing order, i.e. sorted by (u, v).
		// Row cur holds the indices [base, base+row): the cursor advances
		// row by row instead of dividing each index by n-1.
		row := uint64(n - 1)
		total := uint64(n) * row
		law := rng.NewGeometricLaw(p)
		base := uint64(0)
		for idx := uint64(law.Draw(r)); idx < total; idx += 1 + uint64(law.Draw(r)) {
			for idx-base >= row {
				base += row
				cur++
				g.outOff[cur] = len(g.outTo)
			}
			v := NodeID(idx - base)
			if v >= NodeID(cur) {
				v++
			}
			g.outTo = append(g.outTo, v)
		}
	}
	for cur < n {
		cur++
		g.outOff[cur] = len(g.outTo)
	}
	s.finishIn()
	return g
}

// GNPHetero is graph.GNPHetero writing into the scratch's reusable storage:
// the same draws in the same order (every p_u first, then one geometric
// skip stream per row u), with rows emitted straight into CSR. Targets
// arrive increasing and duplicate-free, so no edge list or sort is needed.
// The returned probabilities alias scratch storage too.
func (s *Scratch) GNPHetero(n int, pmin, pmax float64, r *rng.RNG) (*Digraph, []float64) {
	if pmin < 0 || pmax > 1 || pmin > pmax {
		panic("graph: GNPHetero needs 0 <= pmin <= pmax <= 1")
	}
	g := s.begin(n)
	if cap(s.ps) < n {
		s.ps = make([]float64, n)
	}
	s.ps = s.ps[:n]
	for i := range s.ps {
		s.ps[i] = pmin + (pmax-pmin)*r.Float64()
	}
	for u, p := range s.ps {
		if p > 0 {
			// Geometric skipping over the n-1 potential targets of u.
			law := rng.NewGeometricLaw(p)
			for idx := law.Draw(r); idx < n-1; idx += 1 + law.Draw(r) {
				v := NodeID(idx)
				if v >= NodeID(u) {
					v++
				}
				g.outTo = append(g.outTo, v)
			}
		}
		g.outOff[u+1] = len(g.outTo)
	}
	s.finishIn()
	return g, s.ps
}

// finishIn derives the in-adjacency of s.g from its completed out-adjacency
// by counting sort: count in-degrees, prefix-sum, then fill by walking the
// out-lists in u order — which leaves every in-list sorted, matching the
// Builder invariant.
func (s *Scratch) finishIn() {
	g := &s.g
	n := g.n
	m := len(g.outTo)
	g.inTo = growIDs(g.inTo, m)
	for i := range g.inOff {
		g.inOff[i] = 0
	}
	for _, v := range g.outTo {
		g.inOff[v+1]++
	}
	for i := 0; i < n; i++ {
		g.inOff[i+1] += g.inOff[i]
	}
	if cap(s.pos) < n {
		s.pos = make([]int32, n)
	} else {
		s.pos = s.pos[:n]
		for i := range s.pos {
			s.pos[i] = 0
		}
	}
	for u := 0; u < n; u++ {
		for i := g.outOff[u]; i < g.outOff[u+1]; i++ {
			v := g.outTo[i]
			g.inTo[g.inOff[v]+int(s.pos[v])] = NodeID(u)
			s.pos[v]++
		}
	}
}
