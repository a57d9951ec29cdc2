// Package obs is the always-on observability layer: fixed-memory latency
// histograms, a bounded per-update trace ring, the Tracer hook the core
// engine emits into (see core.Config.Tracer), and a stdlib-only /debug
// HTTP server exporting all of it. Everything here is allocation-free on
// the observation path and safe for concurrent use, so a Tracer can stay
// attached to a production engine permanently.
package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sync"
	"time"
)

// Histogram bucket layout: log-linear, like runtime/metrics and HDR
// histograms. Values (nanoseconds) below 2^subBits land in exact unit
// buckets; above that, each power of two is divided into 2^subBits linear
// sub-buckets, bounding the relative quantile error at 2^-subBits ≈ 12.5%
// per bucket width (the reported quantile interpolates inside the bucket,
// halving that in expectation). The bucket array covers the full uint64
// nanosecond range — about 584 years — in fixed memory.
const (
	subBits  = 3
	subCount = 1 << subBits // linear sub-buckets per octave

	// numBuckets is bucketIndex(math.MaxUint64)+1: the top octave has
	// bit-length 64, so the largest index is (64-subBits)*subCount + 7.
	numBuckets = (64-subBits)*subCount + subCount
)

// bucketIndex maps a nanosecond value to its bucket.
func bucketIndex(v uint64) int {
	if v < subCount {
		return int(v)
	}
	top := bits.Len64(v) // position of the highest set bit, ≥ subBits+1
	mantissa := v >> (top - subBits - 1)
	return (top-subBits)*subCount + int(mantissa-subCount)
}

// bucketUpper returns the largest value mapping to bucket i (the
// inclusive upper bound, i.e. the Prometheus `le` boundary).
func bucketUpper(i int) uint64 {
	if i < subCount {
		return uint64(i)
	}
	octave := i / subCount
	pos := uint64(i % subCount)
	return (subCount+pos+1)<<(octave-1) - 1
}

// Histogram is a fixed-memory, log-bucketed distribution of durations.
// It replaces unbounded []time.Duration samples: memory is constant
// regardless of how many observations arrive, and merging two histograms
// is bucket-wise addition. The zero value is NOT ready for use; call
// NewHistogram.
//
// All methods are safe for concurrent use.
type Histogram struct {
	mu      sync.Mutex
	buckets [numBuckets]uint64 // guarded by mu
	count   uint64             // guarded by mu
	sum     uint64             // guarded by mu — total nanoseconds
	min     uint64             // guarded by mu — valid when count > 0
	max     uint64             // guarded by mu
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{}
}

// Observe records one duration. Negative durations are clamped to zero.
func (h *Histogram) Observe(d time.Duration) { h.ObserveN(d, 1) }

// ObserveN records n observations of the same duration under one lock
// acquisition — how a caller that accounts events in bulk keeps sample
// counts reconciling with event counts.
func (h *Histogram) ObserveN(d time.Duration, n uint64) {
	if n == 0 {
		return
	}
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	i := bucketIndex(v)
	h.mu.Lock()
	h.buckets[i] += n
	if h.count == 0 || v < h.min {
		h.min = v
	}
	h.count += n
	h.sum += v * n
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the total of all observed durations.
//
//lint:ignore deadexport test oracle: production reads the tracer over /metrics and /trace, the core and server tests read what the engines recorded in process
func (h *Histogram) Sum() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return time.Duration(h.sum)
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return time.Duration(h.max)
}

// Quantile returns an estimate of the p-quantile (p in [0,1]) using
// linear interpolation inside the target bucket. Empty histograms return
// 0. The estimate is exact for values below 2^subBits ns and within one
// sub-bucket width (≤ 12.5% relative) otherwise.
func (h *Histogram) Quantile(p float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	if p <= 0 {
		return time.Duration(h.min)
	}
	if p >= 1 {
		return time.Duration(h.max)
	}
	rank := p * float64(h.count)
	cum := 0.0
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			upper := float64(bucketUpper(i))
			lower := 0.0
			if i > 0 {
				lower = float64(bucketUpper(i-1)) + 1
			}
			frac := (rank - cum) / float64(c)
			v := lower + frac*(upper-lower)
			// Clamp to the observed range so tail quantiles never
			// overshoot the true maximum.
			if m := float64(h.max); v > m {
				v = m
			}
			if m := float64(h.min); v < m {
				v = m
			}
			return time.Duration(v)
		}
		cum = next
	}
	return time.Duration(h.max)
}

// snapshot returns the non-empty buckets as (upperBound, count) pairs in
// ascending order, plus count and sum — the raw material for custom
// exports.
func (h *Histogram) snapshot() (buckets []HistBucket, count uint64, sum time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, c := range h.buckets {
		if c != 0 {
			buckets = append(buckets, HistBucket{Upper: time.Duration(bucketUpper(i)), Count: c})
		}
	}
	return buckets, h.count, time.Duration(h.sum)
}

// HistBucket is one non-empty histogram bucket: Count observations with
// values ≤ Upper (and greater than the previous bucket's Upper).
type HistBucket struct {
	Upper time.Duration
	Count uint64
}

// writePrometheus emits the histogram in Prometheus text exposition
// format under the given metric name, with values converted to seconds
// (the Prometheus base unit). Only non-empty buckets are written
// (cumulative counts stay correct; Prometheus permits sparse `le`
// boundaries), followed by the mandatory +Inf bucket, _sum and _count.
func (h *Histogram) writePrometheus(w io.Writer, name string) error {
	buckets, count, sum := h.snapshot()
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	cum := uint64(0)
	for _, b := range buckets {
		cum += b.Count
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, b.Upper.Seconds(), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %g\n", name, sum.Seconds()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", name, count)
	return err
}
