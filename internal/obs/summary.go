package obs

import (
	"math"
	"sort"
	"time"
)

// Summary holds exact order statistics of a sample of durations.
type Summary struct {
	N             int
	Min, Max      time.Duration
	Mean          time.Duration
	P50, P90, P99 time.Duration
	Total         time.Duration
}

// Summarize computes order statistics; it copies and sorts the input.
func Summarize(ds []time.Duration) Summary {
	var s Summary
	s.N = len(ds)
	if s.N == 0 {
		return s
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, d := range sorted {
		s.Total += d
	}
	s.Min = sorted[0]
	s.Max = sorted[s.N-1]
	s.Mean = s.Total / time.Duration(s.N)
	s.P50 = NearestRank(sorted, 0.50)
	s.P90 = NearestRank(sorted, 0.90)
	s.P99 = NearestRank(sorted, 0.99)
	return s
}

// NearestRank returns the p-quantile of an ascending sample by the
// nearest-rank rule: the ⌈p·n⌉-th smallest value, i.e. the smallest x
// with at least a fraction p of the sample at or below it. 0 for an
// empty sample.
func NearestRank(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
