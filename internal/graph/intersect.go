// Sorted-set intersection kernels over the label-partitioned adjacency.
//
// Every CSM backend's candidate computation reduces to intersecting the
// label-sliced neighbor runs of already-matched vertices (NeighborsWithLabel
// returns them sorted by neighbor ID). This file centralizes the three
// primitives those loops are built from, so each internal/algo package stops
// re-implementing scan-and-filter ad hoc:
//
//   - point lookups: SearchNeighbors / FindInNeighbors (and the []VertexID
//     twins SearchIDs),
//   - monotonic cursor advancement: AdvanceNeighbors / AdvanceIDs — a linear
//     probe of a few entries that falls back to galloping (doubling then
//     binary search), which is what makes k-way "zipper" intersection cheap
//     both when the lists are similar in size and when they are wildly
//     skewed,
//   - materializing pairwise intersection: IntersectNeighborIDs /
//     IntersectIDsNeighbors / IntersectIDs, which pick linear merge or
//     galloping adaptively by size ratio (GallopRatio) and append into a
//     caller-provided buffer so the caller controls allocation.
//
// All kernels are allocation-free; KernelStats is a single-writer counter
// block, one per concurrently searching goroutine. See DESIGN.md §11 for
// the selection heuristic and measured crossover.
package graph

const (
	// gallopLinear is the number of entries AdvanceNeighbors/AdvanceIDs
	// probe linearly before switching to doubling search. Small forward
	// steps dominate zipper intersection of similar-size runs; the linear
	// phase keeps those branch-predictable and cache-local.
	gallopLinear = 4

	// GallopRatio is the |large|/|small| size ratio above which the
	// pairwise intersection kernels switch from linear merge to galloping
	// over the large side. Merge is O(|a|+|b|); galloping is
	// O(|small| · log |large|), which wins once the lists are skewed by
	// roughly this factor (see BenchmarkIntersectCrossover).
	GallopRatio = 8
)

// SearchNeighbors returns the smallest index i with a[i].ID >= v, assuming a
// is sorted by ID (which every NeighborsWithLabel run is).
//
//paracosm:noalloc
func SearchNeighbors(a []Neighbor, v VertexID) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid].ID < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// FindInNeighbors reports whether v occurs in the ID-sorted run a, and the
// label of the connecting edge if so (NoLabel otherwise).
//
//paracosm:noalloc
func FindInNeighbors(a []Neighbor, v VertexID) (Label, bool) {
	i := SearchNeighbors(a, v)
	if i < len(a) && a[i].ID == v {
		return a[i].ELabel, true
	}
	return NoLabel, false
}

// AdvanceNeighbors returns the smallest index j >= from with a[j].ID >= v
// (len(a) if none), assuming a[from:] is sorted by ID. It probes gallopLinear
// entries linearly, then gallops: doubling steps to bracket v followed by a
// binary search. The second result reports whether the gallop phase ran —
// callers feed it into KernelStats to expose the galloped fraction.
//
// Intended use is a monotonically advancing cursor: intersecting a candidate
// run against k other runs costs one AdvanceNeighbors per (candidate, run)
// pair, and each cursor only ever moves forward.
//
//paracosm:noalloc
func AdvanceNeighbors(a []Neighbor, from int, v VertexID) (int, bool) {
	n := len(a)
	end := from + gallopLinear
	if end > n {
		end = n
	}
	for j := from; j < end; j++ {
		if a[j].ID >= v {
			return j, false
		}
	}
	if end == n {
		return n, false
	}
	// Gallop: double the probe offset until a[end+off] >= v (or the list
	// ends), then binary-search the bracketed half-open window.
	off := 1
	for end+off < n && a[end+off].ID < v {
		off <<= 1
	}
	lo, hi := end+off/2, end+off
	if hi > n {
		hi = n
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid].ID < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, true
}

// SearchIDs returns the smallest index i with a[i] >= v, assuming a sorted.
//
//paracosm:noalloc
func SearchIDs(a []VertexID, v VertexID) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// AdvanceIDs is AdvanceNeighbors over a sorted []VertexID.
//
//paracosm:noalloc
func AdvanceIDs(a []VertexID, from int, v VertexID) (int, bool) {
	n := len(a)
	end := from + gallopLinear
	if end > n {
		end = n
	}
	for j := from; j < end; j++ {
		if a[j] >= v {
			return j, false
		}
	}
	if end == n {
		return n, false
	}
	off := 1
	for end+off < n && a[end+off] < v {
		off <<= 1
	}
	lo, hi := end+off/2, end+off
	if hi > n {
		hi = n
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, true
}

// IntersectNeighborIDs appends to dst every vertex ID present in both
// ID-sorted runs a and b, in ascending order, and returns the extended
// buffer. Edge labels are ignored (callers that filter on edge labels use
// the zipper primitives directly). The kernel is chosen adaptively: linear
// merge for similar sizes, galloping over the larger run when the sizes
// differ by GallopRatio or more. dst must not alias a or b.
//
//paracosm:noalloc
func IntersectNeighborIDs(dst []VertexID, a, b []Neighbor, st *KernelStats) []VertexID {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		if st != nil {
			st.AddIntersection(0, 0)
		}
		return dst
	}
	var probes, galloped uint64
	if len(b) >= GallopRatio*len(a) {
		pos := 0
		for i := range a {
			v := a[i].ID
			j, g := AdvanceNeighbors(b, pos, v)
			probes++
			if g {
				galloped++
			}
			if j == len(b) {
				break
			}
			pos = j
			if b[j].ID == v {
				dst = append(dst, v)
			}
		}
	} else {
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			av, bv := a[i].ID, b[j].ID
			switch {
			case av == bv:
				dst = append(dst, av)
				i++
				j++
			case av < bv:
				i++
			default:
				j++
			}
		}
	}
	if st != nil {
		st.AddIntersection(probes, galloped)
	}
	return dst
}

// IntersectIDsNeighbors appends to dst every ID present in both the sorted
// ID slice ids and the ID-sorted run b, in ascending order. dst == ids[:0]
// is explicitly allowed (in-place fold): the write cursor never overtakes
// the read cursor and every written value equals the element it replaces,
// so folding a k-way intersection through one buffer needs no second one.
//
//paracosm:noalloc
func IntersectIDsNeighbors(dst, ids []VertexID, b []Neighbor, st *KernelStats) []VertexID {
	if len(ids) == 0 || len(b) == 0 {
		if st != nil {
			st.AddIntersection(0, 0)
		}
		return dst
	}
	var probes, galloped uint64
	switch {
	case len(b) >= GallopRatio*len(ids):
		pos := 0
		for _, v := range ids {
			j, g := AdvanceNeighbors(b, pos, v)
			probes++
			if g {
				galloped++
			}
			if j == len(b) {
				break
			}
			pos = j
			if b[j].ID == v {
				dst = append(dst, v)
			}
		}
	case len(ids) >= GallopRatio*len(b):
		pos := 0
		for i := range b {
			v := b[i].ID
			j, g := AdvanceIDs(ids, pos, v)
			probes++
			if g {
				galloped++
			}
			if j == len(ids) {
				break
			}
			pos = j
			if ids[j] == v {
				dst = append(dst, v)
			}
		}
	default:
		i, j := 0, 0
		for i < len(ids) && j < len(b) {
			av, bv := ids[i], b[j].ID
			switch {
			case av == bv:
				dst = append(dst, av)
				i++
				j++
			case av < bv:
				i++
			default:
				j++
			}
		}
	}
	if st != nil {
		st.AddIntersection(probes, galloped)
	}
	return dst
}

// IntersectIDs appends to dst every ID present in both sorted slices a and
// b, in ascending order, choosing merge or gallop by size ratio. dst must
// not alias b; dst == a[:0] is allowed (same argument as
// IntersectIDsNeighbors).
//
//paracosm:noalloc
func IntersectIDs(dst, a, b []VertexID, st *KernelStats) []VertexID {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		if st != nil {
			st.AddIntersection(0, 0)
		}
		return dst
	}
	var probes, galloped uint64
	if len(b) >= GallopRatio*len(a) {
		pos := 0
		for _, v := range a {
			j, g := AdvanceIDs(b, pos, v)
			probes++
			if g {
				galloped++
			}
			if j == len(b) {
				break
			}
			pos = j
			if b[j] == v {
				dst = append(dst, v)
			}
		}
	} else {
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			av, bv := a[i], b[j]
			switch {
			case av == bv:
				dst = append(dst, av)
				i++
				j++
			case av < bv:
				i++
			default:
				j++
			}
		}
	}
	if st != nil {
		st.AddIntersection(probes, galloped)
	}
	return dst
}

// KernelCounters are the intersection-kernel counters, monotonically
// increasing over an engine's lifetime.
type KernelCounters struct {
	// Intersections counts kernel invocations: one per materializing
	// pairwise call and one per k-way zipper enumeration (k >= 1 cursored
	// runs beyond the anchor).
	Intersections uint64
	// Probes counts cursor advances (AdvanceNeighbors/AdvanceIDs calls)
	// performed inside kernels; Galloped counts the subset that entered
	// the doubling phase.
	Probes   uint64
	Galloped uint64
	// CandLookups counts NeighborsWithLabel candidate-run fetches on the
	// enumeration path; CandHits counts those where the run was strictly
	// smaller than the vertex's full adjacency — i.e. where the label
	// partition actually pruned the scan.
	CandLookups uint64
	CandHits    uint64
}

// KernelStats is one single-writer block of kernel counters: plain adds,
// no atomics. Every goroutine that searches concurrently owns its own
// block (algobase.Base keeps one per searcher slot and sums them), and the
// padding rounds the block up to a cache line so neighbouring blocks of a
// slice never share one. A block may be read only while its writer is
// quiescent. The zero value is ready to use.
type KernelStats struct {
	KernelCounters
	_ [64 - 5*8]byte
}

// AddIntersection records one kernel invocation with its probe counts.
//
//paracosm:noalloc
func (s *KernelStats) AddIntersection(probes, galloped uint64) {
	s.Intersections++
	s.Probes += probes
	s.Galloped += galloped
}

// AddCandidateLookup records one candidate-run fetch and whether the label
// slice was strictly smaller than the full adjacency.
//
//paracosm:noalloc
func (s *KernelStats) AddCandidateLookup(hit bool) {
	s.CandLookups++
	if hit {
		s.CandHits++
	}
}

// Counters snapshots the block (see KernelStats for when that is safe).
func (s *KernelStats) Counters() KernelCounters { return s.KernelCounters }

// Add accumulates another snapshot into c.
func (c *KernelCounters) Add(o KernelCounters) {
	c.Intersections += o.Intersections
	c.Probes += o.Probes
	c.Galloped += o.Galloped
	c.CandLookups += o.CandLookups
	c.CandHits += o.CandHits
}
