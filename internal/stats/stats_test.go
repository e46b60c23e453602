package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRandSeedsDiffer(t *testing.T) {
	a, b := NewRand(1), NewRand(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestForkDecorrelates(t *testing.T) {
	parent := NewRand(7)
	a, b := parent.Fork(1), parent.Fork(2)
	if a.Uint64() == b.Uint64() {
		t.Fatal("forked streams start identically")
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) returned %d", v)
		}
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(5)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v, want ≈0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64) bool {
		n := 1 + int(seed%64)
		p := NewRand(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChooseDistinct(t *testing.T) {
	r := NewRand(11)
	sel := r.Choose(100, 30)
	if len(sel) != 30 {
		t.Fatalf("got %d values", len(sel))
	}
	seen := map[int]bool{}
	for _, v := range sel {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("invalid or duplicate value %d", v)
		}
		seen[v] = true
	}
}

func TestGeometricMean(t *testing.T) {
	const mean = 4.0
	g := NewGeom(NewRand(13), mean)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += float64(g.Next())
	}
	if got := sum / n; math.Abs(got-mean) > 0.1 {
		t.Fatalf("geometric mean %v, want ≈%v", got, mean)
	}
}

func TestGeometricZeroMean(t *testing.T) {
	r := NewRand(1)
	g := NewGeom(r, 0)
	for i := 0; i < 100; i++ {
		if g.Next() != 0 {
			t.Fatal("a zero-mean Geom must return 0")
		}
	}
	if r.Uint64() != NewRand(1).Uint64() {
		t.Fatal("a zero-mean Geom consumed its stream")
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRand(17)
	z := NewZipf(r, 1000, 1.0)
	counts := make([]int, 1000)
	const n = 200000
	for i := 0; i < n; i++ {
		v := z.Next()
		if v >= 1000 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	// Rank 0 must dominate rank 99 heavily under s=1.
	if counts[0] < 10*counts[99] {
		t.Fatalf("insufficient skew: rank0=%d rank99=%d", counts[0], counts[99])
	}
	// All mass present.
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != n {
		t.Fatalf("lost samples: %d", total)
	}
}

func TestZipfLowSkewIsFlatter(t *testing.T) {
	r := NewRand(19)
	z := NewZipf(r, 1000, 0.2)
	counts := make([]int, 1000)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	if counts[0] > 100*counts[500] {
		t.Fatalf("s=0.2 too skewed: rank0=%d rank500=%d", counts[0], counts[500])
	}
}

func TestMix64Bijective(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(0); i < 10000; i++ {
		h := Mix64(i)
		if seen[h] {
			t.Fatalf("collision at %d", i)
		}
		seen[h] = true
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5) // [0,10) [10,20) ... [40,50) + overflow
	h.Add(0)
	h.Add(9)
	h.Add(10)
	h.Add(49)
	h.Add(50)
	h.Add(1000)
	h.Add(-5) // clamps to first bucket
	if h.Count() != 7 {
		t.Fatalf("count %d", h.Count())
	}
	if h.Bucket(0) != 3 { // 0, 9, -5
		t.Fatalf("bucket0 = %d", h.Bucket(0))
	}
	if h.Bucket(1) != 1 || h.Bucket(4) != 1 {
		t.Fatalf("mid buckets wrong: %v %v", h.Bucket(1), h.Bucket(4))
	}
	if h.Bucket(5) != 2 { // overflow: 50, 1000
		t.Fatalf("overflow = %d", h.Bucket(5))
	}
	if f := h.Fraction(0); math.Abs(f-3.0/7.0) > 1e-9 {
		t.Fatalf("fraction %v", f)
	}
}

func TestHistogramMean(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	if m := h.Mean(); m != 0 {
		t.Fatalf("empty mean = %v", m)
	}
	for _, v := range []int64{0, 10, 20} {
		h.Add(v)
	}
	if m := h.Mean(); m != 10 {
		t.Fatalf("mean = %v, want 10", m)
	}
	// Clamped (below min) and overflowed samples contribute their true
	// values, not their bucket edges.
	h2 := NewHistogram(0, 10, 2)
	h2.Add(-20)
	h2.Add(1000)
	if m := h2.Mean(); m != 490 {
		t.Fatalf("clamped mean = %v, want 490", m)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(0, 10, 10) // [0,100) + overflow
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
	for v := int64(0); v < 100; v++ {
		h.Add(v)
	}
	// Uniform fill: quantiles track p*100 to within one bucket width.
	for _, p := range []float64{0.1, 0.5, 0.9} {
		if q := h.Quantile(p); math.Abs(q-p*100) > 10 {
			t.Fatalf("Quantile(%v) = %v", p, q)
		}
	}
	if q := h.Quantile(0); q != 0 {
		t.Fatalf("Quantile(0) = %v", q)
	}
	if q := h.Quantile(1); q != 100 {
		t.Fatalf("Quantile(1) = %v, want 100 (top of last real bucket)", q)
	}
	// Out-of-range p clamps instead of panicking.
	if q := h.Quantile(-1); q != h.Quantile(0) {
		t.Fatalf("Quantile(-1) = %v", q)
	}
	if q := h.Quantile(2); q != h.Quantile(1) {
		t.Fatalf("Quantile(2) = %v", q)
	}
}

func TestHistogramQuantileEdgeBuckets(t *testing.T) {
	h := NewHistogram(0, 10, 3) // [0,30) + overflow at 30+
	h.Add(-5)                   // clamps into bucket 0
	h.Add(5)
	if q := h.Quantile(0.25); q < 0 || q >= 10 {
		t.Fatalf("first-bucket quantile = %v", q)
	}
	// All mass in the overflow bucket: every quantile reports its lower
	// edge (the histogram cannot resolve beyond it).
	ho := NewHistogram(0, 10, 3)
	ho.Add(31)
	ho.Add(500)
	for _, p := range []float64{0, 0.5, 1} {
		if q := ho.Quantile(p); q != 30 {
			t.Fatalf("overflow Quantile(%v) = %v, want 30", p, q)
		}
	}
}

func TestTopKBottomK(t *testing.T) {
	vals := []uint64{5, 1, 9, 3, 9, 0}
	top := TopK(vals, 2)
	if len(top) != 2 || top[0] != 2 || top[1] != 4 {
		t.Fatalf("TopK = %v", top)
	}
	bot := BottomK(vals, 2)
	if len(bot) != 2 || bot[0] != 1 || bot[1] != 5 {
		t.Fatalf("BottomK = %v", bot)
	}
}

func TestTopKClamps(t *testing.T) {
	if got := TopK([]uint64{1, 2}, 10); len(got) != 2 {
		t.Fatalf("TopK over-length = %v", got)
	}
}

func TestTopKProperty(t *testing.T) {
	check := func(seed uint64) bool {
		r := NewRand(seed)
		n := 1 + int(seed%50)
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = r.Uint64n(100)
		}
		k := 1 + int(seed>>8)%n
		top := TopK(vals, k)
		// Every selected value ≥ every non-selected value.
		sel := map[int]bool{}
		minSel := uint64(math.MaxUint64)
		for _, i := range top {
			sel[i] = true
			if vals[i] < minSel {
				minSel = vals[i]
			}
		}
		for i, v := range vals {
			if !sel[i] && v > minSel {
				return false
			}
		}
		return len(top) == k
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanGeoMean(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Fatalf("mean %v", m)
	}
	if m := Mean(nil); m != 0 {
		t.Fatalf("empty mean %v", m)
	}
	if g := GeoMean([]float64{1, 4}); math.Abs(g-2) > 1e-9 {
		t.Fatalf("geomean %v", g)
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram(0, 10, 3)
	h.Add(5)
	h.Add(100)
	s := h.String()
	if s == "" || !strings.Contains(s, "[0,10)=1") || !strings.Contains(s, "[30+]=1") {
		t.Fatalf("histogram render %q", s)
	}
}

func TestUint64nPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRand(1).Uint64n(0)
}

func TestChoosePanicsOnOverdraw(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRand(1).Choose(3, 4)
}

func TestZipfPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewZipf(NewRand(1), 0, 1.0)
}

func TestHistogramPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHistogram(0, 0, 4)
}
