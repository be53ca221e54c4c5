package radio

// Cross-validation of the delivery kernels against an independent
// brute-force implementation of the §1.2 collision rule, over randomly
// generated graphs and transmitter sets. The reference is written for
// clarity, not speed: for every node it scans ALL in-neighbours and counts
// transmitters, then applies "receive iff exactly one".

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/rng"
)

// referenceDeliver is the O(n·deg) spec-level implementation.
func referenceDeliver(g *graph.Digraph, transmitters []graph.NodeID, informed Bitset) (delivered []graph.NodeID, collisions int) {
	isTx := make(map[graph.NodeID]bool, len(transmitters))
	for _, u := range transmitters {
		isTx[u] = true
	}
	for v := 0; v < g.N(); v++ {
		count := 0
		for _, u := range g.In(graph.NodeID(v)) {
			if isTx[u] {
				count++
			}
		}
		switch {
		case count >= 2:
			collisions++
		case count == 1 && !informed.Get(graph.NodeID(v)):
			delivered = append(delivered, graph.NodeID(v))
		}
	}
	return delivered, collisions
}

func equalNodeSlices(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSerialKernelMatchesReference(t *testing.T) {
	r := rng.New(1)
	f := func(rawN, rawP, rawTx uint8) bool {
		n := int(rawN%60) + 2
		p := float64(rawP%50)/100 + 0.02
		g := graph.GNPDirected(n, p, r.Split(uint64(rawN)<<8|uint64(rawP)))
		informed := NewBitset(n)
		var txs []graph.NodeID
		txProb := float64(rawTx%80)/100 + 0.1
		for v := 0; v < n; v++ {
			if r.Bernoulli(0.5) {
				informed.Set(graph.NodeID(v))
				if r.Bernoulli(txProb) {
					txs = append(txs, graph.NodeID(v))
				}
			}
		}
		st := newDeliveryState(n)
		gotD, gotC := st.deliver(g, 1, txs, informed, channelCaps{maxHits: 1})
		wantD, wantC := referenceDeliver(g, txs, informed)
		return gotC == wantC && equalNodeSlices(gotD, wantD)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestLossyKernelZeroLossMatchesReference(t *testing.T) {
	// The edge-filtered loop with an all-pass filter must agree with the
	// spec exactly: the edgeOK code path may not perturb hit counting.
	allPass := channelCaps{maxHits: 1,
		edgeOK: func(int, graph.NodeID, graph.NodeID) bool { return true }}
	r := rng.New(3)
	f := func(rawN, rawP uint8) bool {
		n := int(rawN%40) + 2
		p := float64(rawP%60)/100 + 0.05
		g := graph.GNPDirected(n, p, r.Split(uint64(rawN)^uint64(rawP)<<3))
		informed := NewBitset(n)
		var txs []graph.NodeID
		for v := 0; v < n; v++ {
			if r.Bernoulli(0.5) {
				informed.Set(graph.NodeID(v))
				if r.Bernoulli(0.5) {
					txs = append(txs, graph.NodeID(v))
				}
			}
		}
		st := newDeliveryState(n)
		gotD, gotC := st.deliver(g, 1, txs, informed, allPass)
		wantD, wantC := referenceDeliver(g, txs, informed)
		return gotC == wantC && equalNodeSlices(gotD, wantD)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLossyKernelSubsetOfLossless(t *testing.T) {
	// With loss > 0 every delivered node must be a node that had at least
	// one transmitting in-neighbour; and any node with exactly one
	// transmitting in-neighbour either receives or loses to fading — it can
	// never be reported as a collision.
	r := rng.New(5)
	lossy := LossyChannel(0.4).resolve(0x10ead)
	f := func(rawN uint8) bool {
		n := int(rawN%40) + 4
		g := graph.GNPDirected(n, 0.2, r.Split(uint64(rawN)))
		informed := NewBitset(n)
		var txs []graph.NodeID
		for v := 0; v < n; v++ {
			if r.Bernoulli(0.5) {
				informed.Set(graph.NodeID(v))
				if r.Bernoulli(0.6) {
					txs = append(txs, graph.NodeID(v))
				}
			}
		}
		isTx := make(map[graph.NodeID]bool)
		for _, u := range txs {
			isTx[u] = true
		}
		st := newDeliveryState(n)
		delivered, _ := st.deliver(g, int(rawN)+1, txs, informed, lossy)
		for _, v := range delivered {
			if informed.Get(v) {
				return false
			}
			count := 0
			for _, u := range g.In(v) {
				if isTx[u] {
					count++
				}
			}
			if count == 0 {
				return false // received without any transmitter: impossible
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
