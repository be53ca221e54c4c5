package rng

import (
	"math"
	"testing"
)

// pinProbs spans the skip regimes the simulator draws at: G(n,p) at p = d/n
// for large n, Algorithm 1/3 decision probabilities, and the near-flood end.
var pinProbs = []float64{1e-6, 1e-3, 0.05, 0.5, 0.999}

// divisionDraw is the reference geometric draw the law must reproduce: one
// nonzero Float64, inverted by math.Log and a true division.
func divisionDraw(r *RNG, lg float64) int {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return geometricInv(u, lg)
}

// TestGeometricLawMatchesDivision pins the law's guarded fast draw to the
// division draw for draw: same Float64 consumption, same counts, so every
// caller drawing through a hoisted law moves no bit of its stream.
func TestGeometricLawMatchesDivision(t *testing.T) {
	for _, p := range pinProbs {
		a, b := New(0x9e0), New(0x9e0)
		law := NewGeometricLaw(p)
		lg := math.Log1p(-p)
		for i := 0; i < 20000; i++ {
			if x, y := law.Draw(a), divisionDraw(b, lg); x != y {
				t.Fatalf("p=%g draw %d: law %d, division %d", p, i, x, y)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("p=%g: generators diverged after equal draws", p)
		}
	}
	// p = 1 returns 0 and consumes nothing.
	a, b := New(3), New(3)
	if NewGeometricLaw(1).Draw(a) != 0 || a.Uint64() != b.Uint64() {
		t.Fatal("GeometricLaw(1) must return 0 without drawing")
	}
	for _, p := range []float64{0, -0.5, 1.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGeometricLaw(%v) did not panic", p)
				}
			}()
			NewGeometricLaw(p)
		}()
	}
}

// geometricInvBoundaries are uniforms whose quotient log(u)/lg sits within
// an ulp of an integer, where the division and an unguarded reciprocal
// multiply (log(u) * (1/lg)) floor to different counts. Random digests
// almost never land on such a u, so these are the cases that make an
// unguarded rewrite of the divisor fail loudly.
var geometricInvBoundaries = []struct {
	p    float64
	u    uint64 // math.Float64bits of the uniform
	want int
}{
	{1e-6, 0x3fefe7ac54fc079e, 2973},
	{1e-6, 0x3fefe7a8266e8862, 2975},
	{1e-3, 0x3fed11c79ed484e8, 96},
	{1e-3, 0x3fea039134ccdf5c, 207},
	{0.05, 0x3fd3abbc23c51e52, 23},
	{0.05, 0x3fd005a3378c34fe, 27},
	{0.5, 0x3fc0000000000001, 3},
	{0.5, 0x3f90000000000002, 6},
	{0.999, 0x3a53ce9a36f23c58, 8},
	{0.999, 0x3557f1fb6f1093f7, 16},
}

// TestGeometricInvBoundaries pins the reference inversion step at the
// boundary uniforms, and the law's fast step with them: wherever it does
// not defer to the reference, it must give the same count.
func TestGeometricInvBoundaries(t *testing.T) {
	for _, c := range geometricInvBoundaries {
		u := math.Float64frombits(c.u)
		if got := geometricInv(u, math.Log1p(-c.p)); got != c.want {
			t.Errorf("p=%g u=%v: geometricInv %d, want %d", c.p, u, got, c.want)
		}
		if got, ok := fastStep(NewGeometricLaw(c.p), u); ok && got != c.want {
			t.Errorf("p=%g u=%v: fast step %d, want %d", c.p, u, got, c.want)
		}
	}
}

// TestSkipSampleStreamPinned pins SkipSample's selected indices to digests
// recorded before the sampler hoisted its divisor. A change to the draw
// arithmetic (an unguarded reciprocal multiply in place of the division,
// say) shifts some floor() boundary and fails here loudly.
func TestSkipSampleStreamPinned(t *testing.T) {
	want := map[float64]uint64{
		1e-6:  0x288df446ee7eaba,
		1e-3:  0x72ca65b09a577da3,
		0.05:  0xc76c2e0d1c08cad2,
		0.5:   0x9845f5e2f682640d,
		0.999: 0xd74ab63b647c3237,
	}
	for _, p := range pinProbs {
		r := New(0x5eed)
		// ~2000 selections per p, over a range long enough that small p
		// still selects.
		s := r.SkipSample(int(2000/p), p)
		h := uint64(14695981039346656037)
		k := 0
		for i, ok := s.Next(); ok; i, ok = s.Next() {
			h = (h ^ uint64(i)) * 1099511628211
			k++
		}
		h = (h ^ uint64(k)) * 1099511628211
		if h != want[p] {
			t.Errorf("p=%g: SkipSample digest %#x (%d selections), want %#x", p, h, k, want[p])
		}
	}
}

// TestSampleWithoutReplacementPinned pins the sampler's output stream and
// its RNG consumption to digests recorded from the map-and-insertion-sort
// implementation it replaced: the same Intn draws and the same duplicate
// rule must give the same sorted sets, edge cases (k = 0, k = n, n around a
// word boundary) included.
func TestSampleWithoutReplacementPinned(t *testing.T) {
	for _, c := range []struct {
		n, k int
		want uint64
	}{
		{1, 1, 0x42d6851a0323489b},
		{63, 0, 0xc1213db0eb7a338f},
		{64, 64, 0x90084c8c05ad1aa2},
		{65, 1, 0x2521f8446dfe5819},
		{1000, 7, 0xf63095a1a7cdeaa},
		{1000, 400, 0xff68d4465dae77b6},
		{4096, 4096, 0xcc966e3c8b69f0b1},
	} {
		// Three draws per case, FNV-folded with a separator, then one more
		// Uint64 so a change in draw count shows even when the sets agree.
		r := New(uint64(c.n)<<20 | uint64(c.k))
		h := uint64(14695981039346656037)
		for rep := 0; rep < 3; rep++ {
			for _, v := range r.SampleWithoutReplacement(c.n, c.k) {
				h = (h ^ uint64(v)) * 1099511628211
			}
			h = (h ^ 0xff) * 1099511628211
		}
		if got := h ^ r.Uint64(); got != c.want {
			t.Errorf("SampleWithoutReplacement(%d, %d) digest %#x, want %#x", c.n, c.k, got, c.want)
		}
	}
}
