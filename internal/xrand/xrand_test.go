package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical draws out of 100", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split children produced identical first draws")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64RangeProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 100; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(11)
	for n := 1; n < 50; n++ {
		for i := 0; i < 100; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for k, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Errorf("bucket %d: got %d, want ~%.0f", k, c, want)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(13)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(17)
	for i := 0; i < 10000; i++ {
		if v := r.LogNormal(0, 1); v <= 0 {
			t.Fatalf("LogNormal produced non-positive %v", v)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	for _, lambda := range []float64{0.5, 3, 12, 50} {
		r := New(19)
		const n = 50000
		sum := 0
		for i := 0; i < n; i++ {
			sum += r.Poisson(lambda)
		}
		mean := float64(sum) / n
		if math.Abs(mean-lambda) > 0.05*lambda+0.05 {
			t.Errorf("Poisson(%v) mean = %v", lambda, mean)
		}
	}
}

func TestPoissonNonNegative(t *testing.T) {
	r := New(23)
	for i := 0; i < 10000; i++ {
		if r.Poisson(100) < 0 {
			t.Fatal("negative Poisson draw")
		}
	}
	if r.Poisson(0) != 0 {
		t.Fatal("Poisson(0) != 0")
	}
	if r.Poisson(-5) != 0 {
		t.Fatal("Poisson(-5) != 0")
	}
}

func TestPermIsPermutation(t *testing.T) {
	prop := func(seed uint64) bool {
		r := New(seed)
		n := 1 + r.Intn(64)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(29)
	z := NewZipf(r, 100, 1.1)
	const draws = 100000
	counts := make([]int, 100)
	for i := 0; i < draws; i++ {
		counts[z.Draw()]++
	}
	// Rank 0 must be drawn far more often than rank 50.
	if counts[0] < 5*counts[50] {
		t.Errorf("Zipf not skewed: counts[0]=%d counts[50]=%d", counts[0], counts[50])
	}
	// Monotone head: the first few ranks decrease.
	if counts[0] < counts[1] || counts[1] < counts[4] {
		t.Errorf("Zipf head not decreasing: %v", counts[:5])
	}
}

func TestZipfBounds(t *testing.T) {
	prop := func(seed uint64) bool {
		r := New(seed)
		n := 1 + r.Intn(30)
		z := NewZipf(r, n, 1.0)
		for i := 0; i < 200; i++ {
			v := z.Draw()
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZipfPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"n=0": func() { NewZipf(New(1), 0, 1) },
		"s=0": func() { NewZipf(New(1), 5, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestWeightedProportions(t *testing.T) {
	r := New(31)
	w := NewWeighted(r, []float64{1, 2, 7})
	counts := make([]int, 3)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[w.Draw()]++
	}
	for i, want := range []float64{0.1, 0.2, 0.7} {
		got := float64(counts[i]) / draws
		if math.Abs(got-want) > 0.02 {
			t.Errorf("outcome %d: got %.3f want %.3f", i, got, want)
		}
	}
}

func TestWeightedZeroWeightNeverDrawn(t *testing.T) {
	r := New(37)
	w := NewWeighted(r, []float64{0, 1, 0, 1})
	for i := 0; i < 10000; i++ {
		v := w.Draw()
		if v == 0 || v == 2 {
			t.Fatalf("drew zero-weight outcome %d", v)
		}
	}
}

func TestWeightedPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"empty":    func() { NewWeighted(New(1), nil) },
		"negative": func() { NewWeighted(New(1), []float64{1, -1}) },
		"zero sum": func() { NewWeighted(New(1), []float64{0, 0}) },
		"NaN":      func() { NewWeighted(New(1), []float64{math.NaN()}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestSampleDistinct(t *testing.T) {
	r := New(41)
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	got := Sample(r, items, 10)
	if len(got) != 10 {
		t.Fatalf("Sample returned %d items, want 10", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if seen[v] {
			t.Fatalf("duplicate %d in sample", v)
		}
		seen[v] = true
	}
}

func TestSampleAllWhenKTooLarge(t *testing.T) {
	r := New(43)
	items := []string{"a", "b", "c"}
	got := Sample(r, items, 10)
	if len(got) != 3 {
		t.Fatalf("got %d items, want all 3", len(got))
	}
	seen := map[string]bool{}
	for _, v := range got {
		seen[v] = true
	}
	if !seen["a"] || !seen["b"] || !seen["c"] {
		t.Fatalf("sample missing elements: %v", got)
	}
}

func TestPick(t *testing.T) {
	r := New(47)
	items := []int{10, 20, 30}
	for i := 0; i < 100; i++ {
		v := Pick(r, items)
		if v != 10 && v != 20 && v != 30 {
			t.Fatalf("Pick returned %d not in slice", v)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkZipfDraw(b *testing.B) {
	r := New(1)
	z := NewZipf(r, 100000, 1.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Draw()
	}
}

// searchIndex is the binary search Weighted.Draw used before the guide
// table: the first i with cdf[i] >= u.
func searchIndex(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// guideProbes returns the uniforms where a guide-table draw can go
// wrong: 0, the largest uniform below 1, every cdf boundary and both of
// its float neighbours (clipped to [0, 1)).
func guideProbes(cdf []float64) []float64 {
	us := []float64{0, math.Nextafter(1, 0)}
	for _, c := range cdf {
		for _, u := range []float64{c, math.Nextafter(c, 0), math.Nextafter(c, 2)} {
			if u >= 0 && u < 1 {
				us = append(us, u)
			}
		}
	}
	return us
}

// guideMismatch returns the first probe where w's guide-table lookup
// disagrees with the binary search, or ok=false when none does.
func guideMismatch(w *Weighted) (u float64, got, want int, ok bool) {
	for _, u := range guideProbes(w.cdf) {
		if got, want := w.index(u), searchIndex(w.cdf, u); got != want {
			return u, got, want, true
		}
	}
	return 0, 0, 0, false
}

// guideWeightVectors are the oracle's inputs: hand-picked edge shapes
// (one outcome, zeros, plateaus, extreme ratios) plus 50 random vectors
// with zero runs.
func guideWeightVectors() [][]float64 {
	vs := [][]float64{
		{1},
		{0, 1},
		{1, 0},
		{0, 0, 5, 0, 0},
		{1, 1, 1, 1, 1, 1, 1, 1},
		{1, 2, 7},
		{1e-300, 1, 1e-300},
		{1e300, 1e-300, 1e-300, 1e300},
		{1, 1e-9, 1e-9, 1e-9, 1e-9, 1e-9, 1e-9, 1},
		{3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1},
	}
	r := New(2024)
	for k := 0; k < 50; k++ {
		n := 1 + r.Intn(300)
		ws := make([]float64, n)
		for i := range ws {
			switch r.Intn(4) {
			case 0: // zero run
			case 1:
				ws[i] = 1 // plateau
			default:
				ws[i] = r.LogNormal(0, 3)
			}
		}
		ws[r.Intn(n)] += 1 // positive sum
		vs = append(vs, ws)
	}
	return vs
}

// TestWeightedGuideMatchesBinarySearch pins the guide-table Draw to the
// binary search it replaced, at every cdf boundary and its float
// neighbours, and on a live draw stream.
func TestWeightedGuideMatchesBinarySearch(t *testing.T) {
	for vi, ws := range guideWeightVectors() {
		w := NewWeighted(New(uint64(vi)), ws)
		if u, got, want, bad := guideMismatch(w); bad {
			t.Fatalf("vector %d (n=%d): u=%v drew %d, binary search %d", vi, len(ws), u, got, want)
		}
		ref := New(uint64(vi))
		for i := 0; i < 2000; i++ {
			if got, want := w.Draw(), searchIndex(w.cdf, ref.Float64()); got != want {
				t.Fatalf("vector %d draw %d: got %d, binary search %d", vi, i, got, want)
			}
		}
	}
}

// TestWeightedGuideOracleCatchesOffByOne shows the oracle above has
// teeth: a guide table shifted one slot late disagrees with the binary
// search somewhere in the probe set.
func TestWeightedGuideOracleCatchesOffByOne(t *testing.T) {
	caught := 0
	for _, ws := range guideWeightVectors() {
		w := NewWeighted(New(1), ws)
		late := make([]int32, len(w.guide))
		for j, g := range w.guide {
			late[j] = min(g+1, int32(len(w.cdf)-1))
		}
		w.guide = late
		if _, _, _, bad := guideMismatch(w); bad {
			caught++
		}
	}
	if caught == 0 {
		t.Fatal("an off-by-one guide table passed the oracle on every vector")
	}
}
