package obs

import (
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSummarize(t *testing.T) {
	s := Summarize([]time.Duration{ms(10), ms(30), ms(20)})
	if s.N != 3 || s.Min != ms(10) || s.Max != ms(30) || s.Mean != ms(20) || s.Total != ms(60) {
		t.Fatalf("Summary = %+v", s)
	}
	if s.P50 != ms(20) {
		t.Fatalf("P50 = %v", s.P50)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty Summary = %+v", s)
	}
}

// TestSummarizeNearestRank pins the ⌈p·n⌉−1 rule where rounding p·n to
// the nearest integer would pick a different element: at n = 16,
// p·n = 14.4, so P90 is the 15th value (rounding would give the 14th).
func TestSummarizeNearestRank(t *testing.T) {
	ds := make([]time.Duration, 16)
	for i := range ds {
		ds[len(ds)-1-i] = ms(i + 1) // descending: Summarize must sort
	}
	if s := Summarize(ds); s.P90 != ms(15) {
		t.Fatalf("P90 of 1..16 ms = %v, want the 15th value (15ms)", s.P90)
	}
}

func TestNearestRank(t *testing.T) {
	sorted := []time.Duration{ms(1), ms(2), ms(3), ms(4)}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{0, ms(1)}, {0.25, ms(1)}, {0.5, ms(2)}, {0.51, ms(3)}, {1, ms(4)}} {
		if got := NearestRank(sorted, c.p); got != c.want {
			t.Errorf("NearestRank(1..4 ms, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := NearestRank(nil, 0.5); got != 0 {
		t.Fatalf("NearestRank(empty) = %v, want 0", got)
	}
}
