package obs

import "time"

// Accessors only this package's tests read.

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return time.Duration(h.min)
}

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum / h.count)
}

// Reset zeroes the histogram.
func (h *Histogram) Reset() {
	h.mu.Lock()
	h.buckets = [numBuckets]uint64{}
	h.count, h.sum, h.min, h.max = 0, 0, 0, 0
	h.mu.Unlock()
}

// Cap returns the ring capacity. The buffer length is fixed after newRing,
// but taking the lock keeps the guarded-access invariant checkable.
func (r *Ring) Cap() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Total returns the number of events ever appended.
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}
