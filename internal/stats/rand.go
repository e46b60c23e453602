// Package stats provides deterministic randomness, histograms, and small
// statistical helpers used throughout the simulator.
//
// Every stochastic choice in the simulator flows through a Rand seeded from
// the experiment configuration, so identical configurations always produce
// identical results (design decision D5 in DESIGN.md).
package stats

import "math"

// Rand is a small, fast, deterministic pseudo-random generator based on
// splitmix64. It is not safe for concurrent use; give each component its own
// stream via Fork.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed. A zero seed is valid.
func NewRand(seed uint64) *Rand {
	return &Rand{state: seed + 0x9e3779b97f4a7c15}
}

// Fork derives an independent stream labeled by tag. Streams forked with
// different tags from the same parent are decorrelated.
func (r *Rand) Fork(tag uint64) *Rand {
	return NewRand(Mix64(r.state ^ Mix64(tag)))
}

// Clone returns an independent copy of the generator at its current
// position: the clone and the original produce the same future stream and
// never affect each other.
func (r *Rand) Clone() *Rand {
	c := *r
	return &c
}

// Uint64 returns the next value in the stream.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return Mix64(r.state)
}

// Mix64 is the splitmix64 finalizer: a cheap, high-quality bijective hash.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("stats: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a uniform value in [0, 1). Scaling by 0x1p-53 is exact
// (power of two), so the multiply returns bit-identical values to dividing
// by 1<<53 at a fraction of the latency.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * 0x1p-53
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
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

// Choose returns k distinct values from [0, n) in pseudo-random order.
// It panics if k > n.
func (r *Rand) Choose(n, k int) []int {
	if k > n {
		panic("stats: Choose k > n")
	}
	p := r.Perm(n)
	return p[:k]
}

// Geom is a geometric sampler with a fixed mean, counting failures before
// the first success (support 0, 1, 2, …). Each sample draws one Float64
// from r and inverts the CDF; the math.Log1p of the constant distribution
// parameter is computed once here rather than per sample, because
// workload generation draws a sample per record.
type Geom struct {
	r    *Rand
	logQ float64 // math.Log1p(-p) with p = 1/(mean+1)
	live bool    // mean > 0
}

// NewGeom builds a sampler drawing from r with the given mean (mean >= 0).
func NewGeom(r *Rand, mean float64) *Geom {
	g := &Geom{r: r, live: mean > 0}
	if g.live {
		g.logQ = math.Log1p(-1.0 / (mean + 1.0))
	}
	return g
}

// CloneWith returns a copy of the sampler drawing from r, which callers
// pass as the clone of the original parent stream (Geom shares its parent's
// Rand, so cloning the sampler alone would leave it coupled to the
// original).
func (g *Geom) CloneWith(r *Rand) *Geom {
	c := *g
	c.r = r
	return &c
}

// Next returns the next sample. A sampler with a non-positive mean
// returns zero without consuming the stream.
func (g *Geom) Next() int {
	if !g.live {
		return 0
	}
	u := g.r.Float64()
	n := int(math.Floor(math.Log1p(-u) / g.logQ))
	if n < 0 {
		n = 0
	}
	return n
}

// Zipf draws Zipf-distributed values over [0, n) with exponent s using
// rejection-inversion. It is deterministic given the parent Rand stream.
//
// The acceptance test evaluates h and hInteg at integer-derived points, and
// Zipf mass concentrates on small ranks, so both are memoized for low ranks.
// Memo entries are produced by the very same h/hInteg calls on first use —
// the cache only replays bit-identical values, it never changes a sample.
type Zipf struct {
	r        *Rand
	n        uint64
	s        float64
	hIntegN  float64
	hIntegX1 float64
	hSpan    float64 // hIntegN - hIntegX1, hoisted out of Next
	hX1      float64
	hMemo    []float64 // h(k) by integer rank k; 0 = not yet computed (h > 0)
	hIntMemo []float64 // hInteg(k+0.5) by rank k; NaN = not yet computed
}

// zipfMemoRanks bounds the per-sampler memo tables (16 KB for both).
const zipfMemoRanks = 1024

// NewZipf builds a sampler over [0, n) with skew s (> 0, typically 0.6–1.2).
func NewZipf(r *Rand, n uint64, s float64) *Zipf {
	if n == 0 {
		panic("stats: Zipf over empty range")
	}
	z := &Zipf{r: r, n: n, s: s}
	z.hIntegX1 = z.hInteg(1.5) - 1.0
	z.hIntegN = z.hInteg(float64(n) + 0.5)
	z.hSpan = z.hIntegN - z.hIntegX1
	z.hX1 = z.h(1.0)
	ranks := uint64(zipfMemoRanks)
	if ranks > n {
		ranks = n
	}
	z.hMemo = make([]float64, ranks+1)
	z.hIntMemo = make([]float64, ranks+1)
	for i := range z.hIntMemo {
		z.hIntMemo[i] = math.NaN()
	}
	return z
}

// Clone returns an independent copy of the sampler at its current position:
// same future samples, no shared mutable state. The private Rand and the
// lazily-filled memo tables are deep-copied (memo entries only replay
// bit-identical values, but the tables are written on first use, so clones
// stepping concurrently must not share them).
func (z *Zipf) Clone() *Zipf {
	c := *z
	c.r = z.r.Clone()
	c.hMemo = append([]float64(nil), z.hMemo...)
	c.hIntMemo = append([]float64(nil), z.hIntMemo...)
	return &c
}

func (z *Zipf) h(x float64) float64 { return math.Exp(-z.s * math.Log(x)) }

func (z *Zipf) hInteg(x float64) float64 {
	if z.s == 1.0 {
		return math.Log(x)
	}
	return math.Exp((1.0-z.s)*math.Log(x)) / (1.0 - z.s)
}

func (z *Zipf) hIntegInv(x float64) float64 {
	if z.s == 1.0 {
		return math.Exp(x)
	}
	return math.Exp(math.Log((1.0-z.s)*x) / (1.0 - z.s))
}

// hAt is h(k) for integer rank k, memoized for low ranks.
func (z *Zipf) hAt(k float64) float64 {
	if i := int(k); i < len(z.hMemo) {
		v := z.hMemo[i]
		if v == 0 {
			v = z.h(k)
			z.hMemo[i] = v
		}
		return v
	}
	return z.h(k)
}

// hIntegAt is hInteg(k+0.5) for integer rank k, memoized for low ranks.
func (z *Zipf) hIntegAt(k float64) float64 {
	if i := int(k); i < len(z.hIntMemo) {
		v := z.hIntMemo[i]
		if math.IsNaN(v) {
			v = z.hInteg(k + 0.5)
			z.hIntMemo[i] = v
		}
		return v
	}
	return z.hInteg(k + 0.5)
}

// Next returns the next sample in [0, n), with rank-0 most popular.
func (z *Zipf) Next() uint64 {
	for {
		u := z.hIntegX1 + z.r.Float64()*z.hSpan
		x := z.hIntegInv(u)
		k := math.Floor(x + 0.5)
		if k < 1 {
			k = 1
		}
		if k > float64(z.n) {
			k = float64(z.n)
		}
		// Same acceptance condition as the classic formulation, with the
		// cheap rank-1 branch hoisted ahead of the || — h and hInteg are
		// pure, so evaluation order cannot change the outcome.
		if k <= 1.5 || z.hIntegAt(k)-u <= z.hAt(k) {
			return uint64(k) - 1
		}
	}
}
