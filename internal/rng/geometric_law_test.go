package rng

import (
	"fmt"
	"math"
	"math/bits"
	"testing"
)

// rngYielding returns a generator whose next Float64 is the lattice uniform
// k·2^-53: xoshiro256++ outputs rotl(s0+s3, 23) + s0, so s0 = 0 and
// s3 = rotr(k<<11, 23) put k in the top 53 bits of the first output.
func rngYielding(k uint64) *RNG {
	return &RNG{s1: 1, s3: bits.RotateLeft64(k<<11, -23)}
}

// fastStep is the law's fast step on u: the count it returns and whether
// its guard trusts it (when not, the draw falls back to geometricInv).
func fastStep(l GeometricLaw, u float64) (int, bool) {
	return l.step(float64(fastLog(u) * l.inv))
}

// latticeInv is the reference count for the lattice uniform k·2^-53.
func latticeInv(k uint64, lg float64) int {
	return geometricInv(float64(k)*0x1p-53, lg)
}

// lastLattice is the largest k whose k·2^-53 Float64 can return.
const lastLattice = 1<<53 - 1

// threshold returns the smallest lattice index k whose reference count is
// below m, by bisection: counts do not rise as k grows, the count at k = 1
// is at least m and the count at lastLattice is below it.
func threshold(m int, lg float64) uint64 {
	lo, hi := uint64(1), uint64(lastLattice)
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if latticeInv(mid, lg) >= m {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// TestGeometricLawBoundaries drives the public draw at the uniforms where
// the fast step is most likely to go wrong: the lattice points around the
// integer thresholds of floor(log(u)/lg). For every law it bisects the
// 53-bit lattice to the first 64 thresholds and a spread of large ones
// (including, at p = 1e-9, quotients past the fast step's 2^30 cap) and
// requires the draw to equal the reference at the 16 lattice points on
// either side of each.
func TestGeometricLawBoundaries(t *testing.T) {
	probs := append([]float64{1e-9, 1e-7, 0.3, 0.9, 0.999999}, pinProbs...)
laws:
	for _, p := range probs {
		law := NewGeometricLaw(p)
		top := latticeInv(1, law.lg) // the largest count the lattice reaches
		var ms []int
		for m := 1; m <= min(64, top); m++ {
			ms = append(ms, m)
		}
		for j := 1; j < 32; j++ {
			if m := int(float64(top) * float64(j) / 32); m > 64 {
				ms = append(ms, m)
			}
		}
		checked, fellBack := 0, 0
		for _, m := range ms {
			k0 := threshold(m, law.lg)
			for k := max(k0, 17) - 16; k <= min(k0+16, lastLattice); k++ {
				want := latticeInv(k, law.lg)
				if got := law.Draw(rngYielding(k)); got != want {
					t.Errorf("p=%g threshold %d: lattice k=%d draws %d, want %d", p, m, k, got, want)
					continue laws
				}
				if _, ok := fastStep(law, float64(k)*0x1p-53); !ok {
					fellBack++
				}
				checked++
			}
		}
		t.Logf("p=%g: %d thresholds, %d lattice points, %d through the fallback", p, len(ms), checked, fellBack)
	}
}

// TestFastLogErrorBand checks fastLog against the error band the guard is
// sized from, |fastLog(u) - ln u| <= 2^-51·|ln u| + 2^-37.98, with
// math.Log standing in for ln u (its own sub-ulp error is added to the
// band). The uniforms cover both edges of every table interval, where the
// reduced argument and so the truncation error are largest, at exponents
// from u near 1 down to the smallest normal, plus the boundary uniforms.
func TestFastLogErrorBand(t *testing.T) {
	check := func(u float64) {
		ln := math.Log(u)
		band := 0x1p-51*math.Abs(ln) + math.Exp2(-37.98) + 0x1p-52*math.Abs(ln)
		if d := math.Abs(fastLog(u) - ln); !(d <= band) {
			t.Fatalf("u=%v (%#x): |fastLog - Log| = %g > band %g", u, math.Float64bits(u), d, band)
		}
	}
	worst := 0.0
	for i := 0; i < 256; i++ {
		for _, z := range []float64{1 + float64(i)/256, 1 + float64(i+1)/256 - 0x1p-52, 1 + (float64(i)+0.5)/256} {
			for _, e := range []int{-1, -2, -20, -53, -200, -1022} {
				u := math.Ldexp(z, e)
				check(u)
				worst = max(worst, math.Abs(fastLog(u)-math.Log(u)))
			}
		}
	}
	for _, c := range geometricInvBoundaries {
		check(math.Float64frombits(c.u))
	}
	r := New(0xfa57)
	for i := 0; i < 1<<16; i++ {
		if u := r.Float64(); u != 0 {
			check(u)
		}
	}
	check(0x1p-53)
	check(1 - 0x1p-53)
	t.Logf("worst |fastLog - Log| at the interval edges: 2^%.2f", math.Log2(worst))
}

// FuzzGeometricExact maps k to a nonzero 53-bit lattice uniform (any value
// Float64 can return) and p into (0, 1), and requires the public draw to
// equal the reference inversion. The seed corpus in testdata holds the
// boundary uniforms of geometricInvBoundaries at their nearest lattice
// points and lattice thresholds found by TestGeometricLawBoundaries'
// bisection.
func FuzzGeometricExact(f *testing.F) {
	f.Fuzz(func(t *testing.T, k uint64, p float64) {
		k &= lastLattice
		if k == 0 {
			k = 1
		}
		p = math.Mod(math.Abs(p), 1)
		if !(p > 0) {
			p = 0.5
		}
		law := NewGeometricLaw(p)
		if got, want := law.Draw(rngYielding(k)), latticeInv(k, law.lg); got != want {
			t.Fatalf("p=%v k=%d: draw %d, want %d", p, k, got, want)
		}
	})
}

var benchSink int

// BenchmarkGeometricLaw times the hoisted-law draw and reports the share of
// draws that took the exact fallback, counted off the clock with the fast
// step's own guard predicate over the same stream (at least 2^20 draws). A share
// above 1e-3 fails the benchmark: a broken guard cannot pass as a fast
// number.
func BenchmarkGeometricLaw(b *testing.B) {
	for _, p := range []float64{1e-4, 0.05, 0.5} {
		b.Run(fmt.Sprintf("p=%g", p), func(b *testing.B) {
			law := NewGeometricLaw(p)
			r := New(1)
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += law.Draw(r)
			}
			benchSink = sink
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/draw")
			b.StopTimer()
			n, fellBack := max(b.N, 1<<20), 0
			r = New(1)
			for i := 0; i < n; i++ {
				u := r.Float64()
				for u == 0 {
					u = r.Float64()
				}
				if _, ok := fastStep(law, u); !ok {
					fellBack++
				}
			}
			share := float64(fellBack) / float64(n)
			b.ReportMetric(share, "fallback/draw")
			if share > 1e-3 {
				b.Fatalf("p=%g: %d of %d draws fell back (share %g > 1e-3)", p, fellBack, n, share)
			}
		})
	}
}
