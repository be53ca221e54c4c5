package radio

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// TestTxSetStreamPinned pins the cross-round stream draws (DrawListStream
// interleaved with StreamSilentRounds over a fixed candidate list) to
// digests recorded before TxSet hoisted its divisor, so the decision phase
// of every Bernoulli protocol stays bit-identical under later rewrites of
// the draw arithmetic.
func TestTxSetStreamPinned(t *testing.T) {
	want := map[float64]uint64{
		1e-6:  0x38ee3009b3f2b865,
		1e-3:  0x7d63fdb2db95b734,
		0.05:  0x269f8c66dbc05805,
		0.5:   0x71bb9d45f258fbe,
		0.999: 0xd650af75588d896d,
	}
	list := make([]graph.NodeID, 1500)
	for i := range list {
		list[i] = graph.NodeID(3 * i)
	}
	for _, q := range []float64{1e-6, 1e-3, 0.05, 0.5, 0.999} {
		r := rng.New(0x7e57)
		var s TxSet
		s.Reset(3 * len(list))
		h := uint64(14695981039346656037)
		mix := func(x uint64) { h = (h ^ x) * 1099511628211 }
		round := 1
		for step := 0; step < 400; step++ {
			m := s.StreamSilentRounds(r, len(list), q, 1000)
			mix(uint64(m))
			round += m
			s.BeginRound()
			s.DrawListStream(r, list, q, round)
			for _, v := range s.Pending() {
				mix(uint64(v))
			}
			mix(uint64(len(s.Pending())))
			round++
		}
		if h != want[q] {
			t.Errorf("q=%g: TxSet stream digest %#x, want %#x", q, h, want[q])
		}
	}
}
