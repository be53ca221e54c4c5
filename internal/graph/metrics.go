package graph

import (
	"math"

	"repro/internal/rng"
)

// BFS returns the directed-path distance (in hops) from src to every node;
// unreachable nodes get -1. Distances follow edge direction: dist[v] is the
// minimum number of transmissions needed to relay a message from src to v in
// a collision-free schedule.
func BFS(g *Digraph, src NodeID) []int {
	dist := make([]int, g.N())
	bfsInto(g, src, dist, make([]NodeID, 0, g.N()))
	return dist
}

// bfsInto is BFS into caller storage: dist (length g.N()) is overwritten and
// queue's backing array reused. It returns the queue, which holds every node
// reached in visit order — its length is the reachable count and, since BFS
// dequeues in nondecreasing distance, its last entry is a farthest node.
// With cap(queue) >= g.N() it does not allocate.
func bfsInto(g *Digraph, src NodeID, dist []int, queue []NodeID) []NodeID {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = append(queue[:0], src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		for _, v := range g.Out(u) {
			if dist[v] < 0 {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
	return queue
}

// Eccentricity returns the maximum finite BFS distance from src, together
// with the number of nodes reachable from src (including src itself).
func Eccentricity(g *Digraph, src NodeID) (ecc, reachable int) {
	return eccentricity(g, src, make([]int, g.N()), make([]NodeID, 0, g.N()))
}

// eccentricity is Eccentricity over bfsInto's reusable buffers.
func eccentricity(g *Digraph, src NodeID, dist []int, queue []NodeID) (ecc, reachable int) {
	queue = bfsInto(g, src, dist, queue)
	return dist[queue[len(queue)-1]], len(queue)
}

// Diameter returns the exact directed diameter: the maximum over all ordered
// pairs (u,v) with v reachable from u of dist(u,v). This runs one BFS per
// node (O(n·m)) over one set of buffers; use DiameterSampled for large
// graphs. The second return value is false if some ordered pair is
// unreachable (infinite diameter in the strongly-connected sense); the
// reported value then covers reachable pairs only.
func Diameter(g *Digraph) (int, bool) {
	n := g.N()
	dist, queue := make([]int, n), make([]NodeID, 0, n)
	diam := 0
	strongly := true
	for v := 0; v < n; v++ {
		ecc, reach := eccentricity(g, NodeID(v), dist, queue)
		if reach != n {
			strongly = false
		}
		if ecc > diam {
			diam = ecc
		}
	}
	return diam, strongly
}

// DiameterSampled estimates the diameter by running BFS from k sources
// sampled uniformly without replacement (plus node 0, always included).
// It is a lower bound on the true diameter.
func DiameterSampled(g *Digraph, k int, r *rng.RNG) int {
	if k >= g.N() {
		d, _ := Diameter(g)
		return d
	}
	dist, queue := make([]int, g.N()), make([]NodeID, 0, g.N())
	diam, _ := eccentricity(g, 0, dist, queue)
	for _, src := range r.SampleWithoutReplacement(g.N(), k) {
		if ecc, _ := eccentricity(g, NodeID(src), dist, queue); ecc > diam {
			diam = ecc
		}
	}
	return diam
}

// DegreeStats summarises in- and out-degree distributions.
type DegreeStats struct {
	MinOut, MaxOut int
	MinIn, MaxIn   int
	MeanOut        float64 // equals MeanIn (every edge contributes to both)
}

// Degrees computes degree statistics in one pass.
func Degrees(g *Digraph) DegreeStats {
	s := DegreeStats{MinOut: math.MaxInt, MinIn: math.MaxInt}
	for v := 0; v < g.N(); v++ {
		od, id := g.OutDegree(NodeID(v)), g.InDegree(NodeID(v))
		if od < s.MinOut {
			s.MinOut = od
		}
		if od > s.MaxOut {
			s.MaxOut = od
		}
		if id < s.MinIn {
			s.MinIn = id
		}
		if id > s.MaxIn {
			s.MaxIn = id
		}
	}
	s.MeanOut = float64(g.M()) / float64(g.N())
	return s
}

// ReachableFrom returns the number of nodes reachable from src (including
// src). Broadcast from src can only ever inform this many nodes.
func ReachableFrom(g *Digraph, src NodeID) int {
	_, reach := Eccentricity(g, src)
	return reach
}

// AsymmetricEdges counts the directed edges whose reverse is absent — the
// one-way links produced by heterogeneous transmission radii (u hears v but
// not vice versa).
func AsymmetricEdges(g *Digraph) int {
	asym := 0
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Out(NodeID(u)) {
			if !g.HasEdge(v, NodeID(u)) {
				asym++
			}
		}
	}
	return asym
}

// IsStronglyConnected reports whether every node can reach every other node.
// Implemented as two BFS passes (from node 0 in G and in the transpose),
// which is equivalent to Kosaraju's check for a single component.
func IsStronglyConnected(g *Digraph) bool {
	if g.N() == 0 {
		return true
	}
	if ReachableFrom(g, 0) != g.N() {
		return false
	}
	return ReachableFrom(g.Reverse(), 0) == g.N()
}

// IsWeaklyConnected reports whether the underlying undirected graph is
// connected.
func IsWeaklyConnected(g *Digraph) bool {
	if g.N() == 0 {
		return true
	}
	seen := make([]bool, g.N())
	seen[0] = true
	stack := []NodeID{0}
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		visit := func(v NodeID) {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
		for _, v := range g.Out(u) {
			visit(v)
		}
		for _, v := range g.In(u) {
			visit(v)
		}
	}
	return count == g.N()
}

// Layering partitions nodes by BFS distance from src: Layering[d] holds the
// nodes at distance d. Unreachable nodes are omitted. Used by the layer-based
// experiments for Theorem 4.2.
func Layering(g *Digraph, src NodeID) [][]NodeID {
	dist := BFS(g, src)
	maxD := 0
	for _, d := range dist {
		if d > maxD {
			maxD = d
		}
	}
	layers := make([][]NodeID, maxD+1)
	for v, d := range dist {
		if d >= 0 {
			layers[d] = append(layers[d], NodeID(v))
		}
	}
	return layers
}
