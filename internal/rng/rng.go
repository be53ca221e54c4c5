// Package rng provides a small, deterministic, splittable pseudo-random
// number generator used throughout the simulator.
//
// Reproducibility is a hard requirement for the experiment harness: every
// trial must be a pure function of its seeds so that parallel sweeps produce
// bit-identical results to serial runs. The standard library's math/rand
// global functions are not splittable in a way that guarantees this, so we
// implement xoshiro256++ seeded via splitmix64, following the reference
// constructions by Blackman and Vigna.
//
// The generator is NOT safe for concurrent use; callers derive independent
// substreams with Split (one per goroutine, node, or trial) instead of
// sharing a generator behind a lock.
//
// Geometric draws, which the G(n,p) generators and every skip-sampled
// transmit decision make once per edge or transmitter, go through a
// GeometricLaw: the count floor(log(u)/log(1-p)) is computed with a
// table-driven log and a hoisted reciprocal instead of math.Log and a
// division. The fast step has a proven error band (the fast log's
// truncation, math.Log's documented sub-ulp error, and the reciprocal and
// multiply roundings against the divide's); whenever its quotient lies
// within a guard band that covers that error of an integer, the draw falls
// back to the exact division. Every draw thus returns the count the plain
// division gives for the same uniform, and every stream is bit-identical
// to it; GeometricLaw spells out the budget.
package rng

import (
	"math"
	"math/bits"
)

// RNG is a xoshiro256++ generator. The zero value is invalid; use New.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances *x and returns the next splitmix64 output. It is used
// to expand seeds into full xoshiro state and to derive substream seeds.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator deterministically seeded from seed.
func New(seed uint64) *RNG {
	var r RNG
	r.Reseed(seed)
	return &r
}

// Reseed resets the generator state as if freshly created with New(seed).
func (r *RNG) Reseed(seed uint64) {
	x := seed
	r.s0 = splitmix64(&x)
	r.s1 = splitmix64(&x)
	r.s2 = splitmix64(&x)
	r.s3 = splitmix64(&x)
	// xoshiro state must not be all zero; splitmix64 of any seed cannot
	// produce four zero words, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s0+r.s3, 23) + r.s0
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Split derives an independent substream keyed by id. Streams derived with
// distinct ids from the same parent are statistically independent for our
// purposes (the derivation hashes the parent's next output with the id
// through splitmix64). Split advances the parent generator once.
func (r *RNG) Split(id uint64) *RNG {
	x := r.Uint64() ^ (id * 0x9e3779b97f4a7c15)
	return New(splitmix64(&x))
}

// SubSeed returns a derived seed for stream id without consuming parent
// state. It allows deterministic fan-out: SubSeed(seed, i) is a pure
// function, so workers can be seeded independently of scheduling order.
func SubSeed(seed, id uint64) uint64 {
	x := seed ^ 0xd1b54a32d192ed03
	h := splitmix64(&x)
	x = h ^ (id+1)*0x9e3779b97f4a7c15
	return splitmix64(&x)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Lemire rejection sampling on the high 64 bits of a 128-bit product.
	v := r.Uint64()
	hi, lo := mul64(v, n)
	if lo < n {
		thresh := (-n) % n
		for lo < thresh {
			v = r.Uint64()
			hi, lo = mul64(v, n)
		}
	}
	return hi
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	t := a1*b0 + (a0*b0)>>32
	lo1 := t & mask32
	hi1 := t >> 32
	lo1 += a0 * b1
	hi = a1*b1 + hi1 + lo1>>32
	lo = a * b
	return hi, lo
}

// Bool returns a fair coin flip.
func (r *RNG) Bool() bool { return r.Uint64()&1 == 1 }

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Geometric returns the number of Bernoulli(p) failures before the first
// success, i.e. a sample from the geometric distribution on {0, 1, 2, ...}
// with mean (1-p)/p. It panics unless 0 < p <= 1. Callers drawing many
// samples at one p build the GeometricLaw once instead.
func (r *RNG) Geometric(p float64) int { return NewGeometricLaw(p).Draw(r) }

// The fast inversion step trusts floor(q') of its approximate quotient q'
// only when q' lies farther than guard/|lg| from every integer and below
// fastCap; GeometricLaw gives the error budget the guard covers.
const (
	guard   = 0x1p-36
	fastCap = 1 << 30
)

// GeometricLaw is the geometric distribution of Geometric(p) with its
// per-p constants precomputed, for loops that draw many samples at one p.
// A draw returns floor(log(u)/lg) for a uniform u in (0, 1) and
// lg = math.Log1p(-p), capped at MaxInt32, exactly as the reference
// inversion geometricInv computes it, but without its math.Log call and
// division on all but a tiny fraction of draws.
//
// The fast step computes q' = L·(1/lg), where L is a table-driven log (see
// fastLog) and 1/lg is hoisted into the law. It differs from the
// reference quotient q = fl(math.Log(u)/lg) through three error sources:
//
//   - the fast log: |L - ln u| <= 2^-51·|ln u| + 2^-37.98, dominated by the
//     truncation of its degree-3 polynomial (|r|^4/4 with |r| <= 2^-9);
//   - math.Log, which is documented to err by under 1 ulp (2^-52
//     relative);
//   - rounding the reciprocal and the multiply (2^-53 each) against
//     rounding the divide (2^-53).
//
// Together they give |q' - q| <= (7·2^-53·|ln u| + 2^-37.97)/|lg|. A normal
// u has |ln u| < 709, so the bound is below 2^-37.77/|lg| (2^-37.95/|lg| for
// the uniforms Float64 returns, |ln u| <= 36.8). The guard band
// guard/|lg| = 2^-36/|lg| covers it with a margin of more than 3.4, so
// whenever q' clears the band no integer lies between q' and q and
// floor(q') = floor(q). Every other uniform falls back to geometricInv
// itself, as do quotients at or above 2^30 (where the MaxInt32 cap could
// apply). Each draw therefore returns exactly the reference count from the
// same single uniform, and every stream stays bit-identical to the plain
// division's. An unguarded multiply would not be: near an integer, log(u)
// times 1/lg and log(u)/lg can floor to different counts (the rng tests
// hold such uniforms).
//
// The zero value is invalid; use NewGeometricLaw.
type GeometricLaw struct {
	lg  float64 // math.Log1p(-p): the exact fallback's divisor, -Inf at p = 1
	inv float64 // 1/lg, the fast step's multiplier (-0 at p = 1)
	lo  float64 // guard/|lg|, the half-width of the guard band
}

// NewGeometricLaw returns the law of Geometric(p). It panics unless
// 0 < p <= 1.
func NewGeometricLaw(p float64) GeometricLaw {
	if !(p > 0 && p <= 1) {
		panic("rng: Geometric needs 0 < p <= 1")
	}
	lg := math.Log1p(-p)
	inv := 1 / lg
	return GeometricLaw{lg: lg, inv: inv, lo: -guard * inv}
}

// Draw returns one sample of the law, consuming one Float64 (redrawn while
// it is 0). At p = 1 it returns 0 without consuming randomness.
func (l GeometricLaw) Draw(r *RNG) int {
	if l.inv == 0 { // p = 1
		return 0
	}
	var u float64
	for u == 0 {
		u = float64(r.Uint64()>>11) * 0x1p-53 // Float64, which the compiler does not inline
	}
	if k, ok := l.step(float64(fastLog(u) * l.inv)); ok {
		return k
	}
	return geometricInv(u, l.lg)
}

// step rounds the fast step's approximate quotient q = fastLog(u)·(1/lg)
// and applies its guard: k = floor(q), and ok reports whether k is the
// exact count, i.e. whether q lies below fastCap and farther than lo from
// its nearest integer. Adding and subtracting 2^52 rounds q to that
// integer n without a conversion; t = 2^52 + n holds n in its mantissa
// bits, and the sign of d = q - n says whether floor(q) is n or n-1. The
// caller converts q to float64 explicitly so that the multiply producing
// it is rounded on its own and never fused with the add.
func (l GeometricLaw) step(q float64) (k int, ok bool) {
	t := q + 0x1p52
	d := q - (t - 0x1p52)
	k = int(math.Float64bits(t)&(1<<52-1)) - int(math.Float64bits(d)>>63)
	return k, q < fastCap && math.Abs(d) > l.lo
}

// logTable holds, for the 256 intervals [1 + i/256, 1 + (i+1)/256) of the
// mantissa range, invc = fl(1/c) at the interval's centre c and
// logc = -math.Log(invc), so that log(z) = logc + log1p(z·invc - 1) with
// |z·invc - 1| <= 2^-9 + 2^-52.
var logTable = func() (t [256]struct{ invc, logc float64 }) {
	for i := range t {
		t[i].invc = 1 / (1 + (float64(i)+0.5)/256)
		t[i].logc = -math.Log(t[i].invc)
	}
	return t
}()

// fastLog is a division-free natural log for normal u in (0, 1), as every
// nonzero Float64 is: u = 2^e·z with z in [1, 2), the top 8 mantissa bits
// pick a logTable entry, and log1p(r) of the reduced r = z·invc - 1 is its
// degree-3 Taylor polynomial.
// Error budget, with ℓ = ln u: the polynomial's truncation is at most
// |r|^4/(4(1-|r|)) < 2^-37.99; r itself (z·invc rounds once, the
// subtraction is exact), the table's logc (under 1 ulp, 2^-53) and the
// polynomial's own rounding add under 2^-51.5; rounding math.Ln2, e·Ln2 and
// the two sums adds under 2^-51·|ℓ| + 2^-52 (|e|·ln2 <= |ℓ| + ln2). Total:
// |fastLog(u) - ℓ| <= 2^-51·|ℓ| + 2^-37.98.
func fastLog(u float64) float64 {
	b := math.Float64bits(u)
	e := float64(int(b>>52) - 1023)
	t := &logTable[b>>44&0xff]
	z := math.Float64frombits(b&(1<<52-1) | 1023<<52)
	r := z*t.invc - 1
	return e*math.Ln2 + t.logc + (r + r*r*(-0.5+r*(1.0/3)))
}

// geometricInv is the inversion step floor(log(u)/lg), capped at MaxInt32:
// the reference GeometricLaw's fast step must reproduce, and its fallback.
// With u in (0, 1) and lg < 0 the quotient is positive, so no lower clamp
// is needed.
func geometricInv(u, lg float64) int {
	return int(min(math.Floor(math.Log(u)/lg), math.MaxInt32))
}

// SkipSampler enumerates the indices of [0, n) that pass independent
// Bernoulli(p) trials, in increasing order, drawing only O(np) expected
// randomness via geometric skipping (the Batagelj–Brandes trick already used
// by the G(n,p) generators). It is the decision-phase primitive behind the
// batch transmit fast path: selecting the ~nq transmitters of a Bernoulli
// round directly instead of flipping n coins.
//
// The zero value is exhausted; obtain one from RNG.SkipSample. The sampler
// borrows the RNG: interleaving other draws between Next calls changes the
// selection (deterministically).
type SkipSampler struct {
	r    *RNG
	law  GeometricLaw
	n    int
	next int
	all  bool
}

// SkipSample returns a sampler over [0, n) with per-index probability p.
// p <= 0 selects nothing and p >= 1 selects everything; neither consumes
// randomness for the degenerate part (p >= 1 consumes none at all).
func (r *RNG) SkipSample(n int, p float64) SkipSampler {
	s := SkipSampler{r: r, n: n}
	switch {
	case n <= 0 || p <= 0:
		s.next = n
		if s.next < 0 {
			s.next = 0
		}
	case p >= 1:
		s.all = true
	default:
		s.law = NewGeometricLaw(p)
		s.next = s.law.Draw(r)
	}
	return s
}

// Next returns the next selected index, or ok == false when exhausted.
func (s *SkipSampler) Next() (i int, ok bool) {
	if s.next >= s.n {
		return 0, false
	}
	i = s.next
	if s.all {
		s.next++
	} else {
		s.next += 1 + s.law.Draw(s.r)
	}
	return i, true
}

// Binomial returns a sample from Binomial(n, p). For small n it sums
// Bernoulli draws; for large n it uses geometric skipping (waiting times),
// which runs in O(np) expected time and is exact.
func (r *RNG) Binomial(n int, p float64) int {
	if n < 0 {
		panic("rng: Binomial with negative n")
	}
	if p <= 0 || n == 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if p > 0.5 {
		return n - r.Binomial(n, 1-p)
	}
	if n <= 32 {
		k := 0
		for i := 0; i < n; i++ {
			if r.Float64() < p {
				k++
			}
		}
		return k
	}
	// Geometric skipping: positions of successes among n trials.
	k := 0
	law := NewGeometricLaw(p)
	i := law.Draw(r)
	for i < n {
		k++
		i += 1 + law.Draw(r)
	}
	return k
}

// Exponential returns a sample from Exp(rate) with the given rate parameter
// (mean 1/rate). It panics if rate <= 0.
func (r *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exponential needs rate > 0")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// Normal returns a standard normal sample via the polar Box–Muller method.
func (r *RNG) Normal() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Perm returns a uniformly random permutation of [0, n) (Fisher–Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes xs in place uniformly at random.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// SampleWithoutReplacement returns k distinct uniform values from [0, n) in
// increasing order. It panics if k > n or either is negative. Floyd's
// algorithm draws the k picks (one Intn each) into an n-bit set, which is
// then read out word by word, already sorted: O(k + n/64) time and two
// allocations, the set and the result.
func (r *RNG) SampleWithoutReplacement(n, k int) []int {
	if k < 0 || n < 0 || k > n {
		panic("rng: invalid SampleWithoutReplacement arguments")
	}
	if k == 0 {
		return nil
	}
	chosen := make([]uint64, (n+63)/64)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if chosen[t>>6]&(1<<(t&63)) != 0 {
			t = j // j exceeds every earlier pick, so it is always free
		}
		chosen[t>>6] |= 1 << (t & 63)
	}
	out := make([]int, 0, k)
	for w, word := range chosen {
		for ; word != 0; word &= word - 1 {
			out = append(out, w<<6|bits.TrailingZeros64(word))
		}
	}
	return out
}
