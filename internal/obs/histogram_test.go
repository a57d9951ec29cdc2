package obs

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// Bucket indexing must be monotone, total and consistent with the bucket
// bounds: every value lands in the bucket whose [lower, upper] range
// contains it.
func TestBucketIndexBounds(t *testing.T) {
	vals := []uint64{0, 1, 2, 7, 8, 9, 15, 16, 17, 100, 1023, 1024, 1 << 20, 1<<40 + 12345, math.MaxUint64}
	for _, v := range vals {
		i := bucketIndex(v)
		if i < 0 || i >= numBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range [0,%d)", v, i, numBuckets)
		}
		if up := bucketUpper(i); v > up {
			t.Errorf("value %d above its bucket %d upper bound %d", v, i, up)
		}
		if i > 0 {
			if lo := bucketUpper(i-1) + 1; v < lo {
				t.Errorf("value %d below its bucket %d lower bound %d", v, i, lo)
			}
		}
	}
	// Monotonicity of bounds and indices across the whole range.
	prev := uint64(0)
	for i := 1; i < numBuckets; i++ {
		up := bucketUpper(i)
		if up <= prev {
			t.Fatalf("bucketUpper not strictly increasing at %d: %d <= %d", i, up, prev)
		}
		prev = up
	}
	if got := bucketIndex(math.MaxUint64); got != numBuckets-1 {
		t.Fatalf("MaxUint64 index = %d, want %d", got, numBuckets-1)
	}
}

// Quantiles must track the exact empirical quantiles within the
// documented sub-bucket relative error.
func TestHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewHistogram()
	var sample []time.Duration
	for i := 0; i < 20000; i++ {
		// Log-uniform over ~6 decades, the shape of real update latency.
		d := time.Duration(math.Exp(rng.Float64()*14) * 1000) // 1µs .. ~1.2s in ns
		h.Observe(d)
		sample = append(sample, d)
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	for _, p := range []float64{0.5, 0.9, 0.99} {
		exact := sample[int(p*float64(len(sample)))-1]
		got := h.Quantile(p)
		rel := math.Abs(float64(got-exact)) / float64(exact)
		if rel > 0.15 {
			t.Errorf("p%v: histogram %v vs exact %v (rel err %.3f > 0.15)", p, got, exact, rel)
		}
	}
	if h.Quantile(0) != h.Min() || h.Quantile(1) != h.Max() {
		t.Errorf("extreme quantiles: q0=%v min=%v q1=%v max=%v", h.Quantile(0), h.Min(), h.Quantile(1), h.Max())
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should read as zeros")
	}
	h.Observe(-5 * time.Second) // clamped to 0
	h.Observe(10 * time.Millisecond)
	h.Observe(20 * time.Millisecond)
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3", h.Count())
	}
	if h.Min() != 0 || h.Max() != 20*time.Millisecond {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	if got, want := h.Sum(), 30*time.Millisecond; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 {
		t.Fatal("reset did not zero the histogram")
	}
}

// TestHistogramObserveN: n observations in one call leave the histogram
// exactly as n calls of Observe would.
func TestHistogramObserveN(t *testing.T) {
	bulk, single := NewHistogram(), NewHistogram()
	for _, c := range []struct {
		d time.Duration
		n uint64
	}{{0, 1000}, {3 * time.Millisecond, 7}, {-time.Second, 2}, {time.Hour, 0}} {
		bulk.ObserveN(c.d, c.n)
		for i := uint64(0); i < c.n; i++ {
			single.Observe(c.d)
		}
	}
	bb, bc, bs := bulk.Snapshot()
	sb, sc, ss := single.Snapshot()
	if bc != sc || bs != ss || len(bb) != len(sb) || bulk.Min() != single.Min() || bulk.Max() != single.Max() {
		t.Fatalf("bulk count %d sum %v min %v max %v; single %d %v %v %v",
			bc, bs, bulk.Min(), bulk.Max(), sc, ss, single.Min(), single.Max())
	}
	for i := range bb {
		if bb[i] != sb[i] {
			t.Fatalf("bucket %d: bulk %+v, single %+v", i, bb[i], sb[i])
		}
	}
	if got := bulk.Quantile(0.5); got != 0 {
		t.Fatalf("median of mostly-zero samples = %v", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 1; i <= 100; i++ {
		a.Observe(time.Duration(i) * time.Microsecond)
	}
	for i := 101; i <= 200; i++ {
		b.Observe(time.Duration(i) * time.Microsecond)
	}
	a.Merge(b)
	if a.Count() != 200 {
		t.Fatalf("merged count = %d, want 200", a.Count())
	}
	if a.Max() != 200*time.Microsecond || a.Min() != time.Microsecond {
		t.Fatalf("merged min/max = %v/%v", a.Min(), a.Max())
	}
	med := a.Quantile(0.5)
	if med < 85*time.Microsecond || med > 115*time.Microsecond {
		t.Fatalf("merged median %v far from 100µs", med)
	}
	// Self-merge and nil-merge are no-ops.
	a.Merge(a)
	a.Merge(nil)
	if a.Count() != 200 {
		t.Fatalf("self/nil merge changed count to %d", a.Count())
	}
}

// TestHistogramMergeEdgeCases covers the merge paths the serving layer
// leans on for closed-query latency folding: empty operands on either
// side, min/max propagation into a fresh histogram, and the
// merge-equals-concatenation identity (bucket counts add, so quantiles
// of a merged histogram are EXACTLY those of one histogram fed both
// sequences).
func TestHistogramMergeEdgeCases(t *testing.T) {
	// Empty into empty: still reads as zeros.
	a, b := NewHistogram(), NewHistogram()
	a.Merge(b)
	if a.Count() != 0 || a.Min() != 0 || a.Max() != 0 || a.Quantile(0.5) != 0 {
		t.Fatalf("empty-merge histogram not zero: count=%d", a.Count())
	}

	// Populated into empty: count, sum and extrema carry over exactly.
	b.Observe(3 * time.Millisecond)
	b.Observe(7 * time.Millisecond)
	a.Merge(b)
	if a.Count() != 2 || a.Sum() != 10*time.Millisecond {
		t.Fatalf("merge into empty: count=%d sum=%v", a.Count(), a.Sum())
	}
	if a.Min() != 3*time.Millisecond || a.Max() != 7*time.Millisecond {
		t.Fatalf("merge into empty extrema: min=%v max=%v", a.Min(), a.Max())
	}

	// Empty into populated: a no-op, including extrema (an empty
	// histogram's zero min must not clobber the target's).
	a.Merge(NewHistogram())
	if a.Count() != 2 || a.Min() != 3*time.Millisecond {
		t.Fatalf("empty-operand merge changed state: count=%d min=%v", a.Count(), a.Min())
	}

	// Merge equals concatenation, bucket for bucket.
	x, y, both := NewHistogram(), NewHistogram(), NewHistogram()
	for i := 1; i <= 500; i++ {
		d := time.Duration(i*i) * time.Microsecond
		if i%2 == 0 {
			x.Observe(d)
		} else {
			y.Observe(d)
		}
		both.Observe(d)
	}
	x.Merge(y)
	for _, p := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		if got, want := x.Quantile(p), both.Quantile(p); got != want {
			t.Errorf("q%.2f: merged %v != concatenated %v", p, got, want)
		}
	}
	if x.Count() != both.Count() || x.Sum() != both.Sum() {
		t.Errorf("merged count/sum %d/%v != concatenated %d/%v", x.Count(), x.Sum(), both.Count(), both.Sum())
	}
}

// TestHistogramQuantileEdgeCases pins the quantile contract at the
// boundaries: empty histograms read zero everywhere, out-of-range p
// clamps to the observed extrema, and a single observation answers every
// quantile with itself (clamped to its bucket's range).
func TestHistogramQuantileEdgeCases(t *testing.T) {
	h := NewHistogram()
	for _, p := range []float64{-1, 0, 0.5, 1, 2} {
		if got := h.Quantile(p); got != 0 {
			t.Errorf("empty q%v = %v, want 0", p, got)
		}
	}
	h.Observe(5 * time.Millisecond)
	for _, p := range []float64{-0.5, 0, 0.5, 0.999, 1, 1.5} {
		if got := h.Quantile(p); got != 5*time.Millisecond {
			t.Errorf("single-sample q%v = %v, want 5ms (clamped to the one observation)", p, got)
		}
	}
	// Two extreme samples: interior quantiles stay within [min, max].
	h.Observe(time.Nanosecond)
	for _, p := range []float64{0.01, 0.5, 0.99} {
		q := h.Quantile(p)
		if q < h.Min() || q > h.Max() {
			t.Errorf("q%v = %v outside observed range [%v, %v]", p, q, h.Min(), h.Max())
		}
	}
	if h.Quantile(-3) != h.Min() || h.Quantile(3) != h.Max() {
		t.Errorf("out-of-range p did not clamp: q(-3)=%v q(3)=%v", h.Quantile(-3), h.Quantile(3))
	}
}

func TestHistogramPrometheus(t *testing.T) {
	h := NewHistogram()
	h.Observe(time.Millisecond)
	h.Observe(2 * time.Millisecond)
	var sb strings.Builder
	if err := h.WritePrometheus(&sb, "test_seconds"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE test_seconds histogram",
		`test_seconds_bucket{le="+Inf"} 2`,
		"test_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Cumulative bucket counts and le bounds must be non-decreasing.
	lastCount, lastLE := uint64(0), math.Inf(-1)
	for _, line := range strings.Split(out, "\n") {
		i := strings.Index(line, `{le="`)
		if i < 0 || strings.Contains(line, "+Inf") {
			continue
		}
		rest := line[i+len(`{le="`):]
		j := strings.Index(rest, `"} `)
		if j < 0 {
			t.Fatalf("malformed bucket line %q", line)
		}
		le, err := strconv.ParseFloat(rest[:j], 64)
		if err != nil {
			t.Fatalf("bad le in %q: %v", line, err)
		}
		c, err := strconv.ParseUint(rest[j+3:], 10, 64)
		if err != nil {
			t.Fatalf("bad count in %q: %v", line, err)
		}
		if c < lastCount || le <= lastLE {
			t.Errorf("non-monotonic bucket line %q", line)
		}
		lastCount, lastLE = c, le
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(w*1000+i) * time.Nanosecond)
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
}
