package sim

import "math"

// Rng is a small, fast, deterministic pseudo-random number generator based on
// SplitMix64. It is not safe for concurrent use; simulations that need
// parallel streams should derive one Rng per goroutine with Split.
//
// SplitMix64 passes BigCrush, has a 2^64 period, and — critically for this
// project — is trivially reproducible across Go versions, unlike math/rand's
// unspecified global source.
type Rng struct {
	state uint64
}

// NewRng returns a generator seeded with seed. Two generators with the same
// seed produce identical streams.
func NewRng(seed uint64) *Rng {
	return &Rng{state: seed}
}

// Split derives an independent generator from r's stream. The derived stream
// is decorrelated from the parent by the SplitMix64 output function.
func (r *Rng) Split() *Rng {
	return NewRng(r.Uint64() ^ 0x9e3779b97f4a7c15)
}

// Uint64 returns the next value in the stream.
func (r *Rng) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// State returns the generator's internal state, for checkpointing: NewRng of
// a saved State resumes the stream exactly where it left off (NewRng seeds
// the state directly). The warm-state snapshot cache (internal/mlc) relies
// on this to restore a measurement loop mid-stream.
func (r *Rng) State() uint64 { return r.state }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
// Power-of-two bounds take a mask fast path; u % n == u & (n-1) for those n,
// so the value stream is identical — the mask just skips the hardware divide
// in the address-generation hot loops, whose bounds (line counts of
// power-of-two buffers) are almost always powers of two.
func (r *Rng) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive bound")
	}
	if n&(n-1) == 0 {
		return int(r.Uint64() & uint64(n-1))
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform value in [0, n). It panics if n <= 0.
// Power-of-two bounds take the same mask fast path as Intn.
func (r *Rng) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive bound")
	}
	if n&(n-1) == 0 {
		return int64(r.Uint64() & uint64(n-1))
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *Rng) Float64() float64 {
	// 53 high bits -> uniform double in [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Exp returns an exponentially distributed value with the given mean.
// Used for open-loop (Poisson) arrival processes in the latency benchmarks.
func (r *Rng) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Perm returns a random permutation of [0, n) using Fisher–Yates.
func (r *Rng) Perm(n int) []int {
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

// Zipf draws from a bounded zipfian distribution over [0, n) with skew s > 0
// using rejection-inversion (Hörmann). A Zipf value is created once and
// reused; construction is O(1) and each draw is O(1) expected.
type Zipf struct {
	rng              *Rng
	n                float64
	s                float64
	oneMinusS        float64
	oneOverOneMinusS float64
	hx0              float64
	hxm              float64
	hDenom           float64
}

// NewZipf builds a zipfian sampler over {0, 1, ..., n-1} with exponent s.
// s must be > 0 and != 1 is handled exactly; s == 1 is nudged slightly to
// keep the closed forms finite (standard practice).
func NewZipf(rng *Rng, n int, s float64) *Zipf {
	if n <= 0 {
		panic("sim: Zipf with non-positive n")
	}
	if s <= 0 {
		panic("sim: Zipf with non-positive skew")
	}
	if s == 1 {
		s = 1.0000001
	}
	z := &Zipf{rng: rng, n: float64(n), s: s}
	z.oneMinusS = 1 - s
	z.oneOverOneMinusS = 1 / z.oneMinusS
	z.hx0 = z.h(0.5) - 1
	z.hxm = z.h(z.n + 0.5)
	z.hDenom = z.hx0 - z.hxm
	return z
}

// h is the integral of the zipf density, used by rejection-inversion.
func (z *Zipf) h(x float64) float64 {
	return math.Pow(x, z.oneMinusS) * z.oneOverOneMinusS
}

func (z *Zipf) hInv(x float64) float64 {
	return math.Pow(x*z.oneMinusS, z.oneOverOneMinusS)
}

// Next draws the next zipfian value in [0, n).
func (z *Zipf) Next() int {
	for {
		u := z.hx0 - z.rng.Float64()*z.hDenom
		x := z.hInv(u)
		k := math.Floor(x + 0.5)
		if k < 1 {
			k = 1
		}
		if k > z.n {
			k = z.n
		}
		// Acceptance test (simplified Hörmann; exact for s>0 over bounded n).
		if k-x <= 0.5 || z.h(k+0.5)-math.Pow(k, -z.s) >= u {
			return int(k) - 1
		}
	}
}
