package stream

import "paracosm/internal/graph"

// CoalesceStats reports what a Coalescer.Coalesce call did to one window.
type CoalesceStats struct {
	// In and Out are the update counts before and after coalescing.
	In, Out int
	// AnnihilatedPairs counts exact insert/delete (or delete/insert)
	// pairs removed: every dropped update belongs to one such pair, so
	// 2*AnnihilatedPairs == In-Out.
	AnnihilatedPairs int
	// Barriers counts vertex ops, which split the window into segments
	// (edge ops never coalesce across a vertex op).
	Barriers int
}

// Removed returns the number of updates eliminated by coalescing.
func (s CoalesceStats) Removed() int { return s.In - s.Out }

// edgeEntry accumulates the per-edge op history of one window segment.
type edgeEntry struct {
	first       int32 // window index of the edge's first touch
	count       int32 // touches in this segment
	lastOp      Op    // previous op seen, for the alternation check
	last        Update
	alternating bool
}

// Coalescer folds a window of updates into its net effect: repeated
// touches of the same edge collapse to at most two updates, and exact
// insert/delete pairs annihilate entirely. It holds reusable scratch so
// steady-state windows do not allocate; one Coalescer serves one
// goroutine at a time.
//
// Semantics (see DESIGN.md §15): vertex ops are barriers — AddVertex
// assigns ids at apply time and DeleteVertex requires isolation, so
// edge histories reset at every vertex op. Within a segment the ops on
// one edge must strictly alternate in any stream that applies cleanly;
// a non-alternating history (malformed stream) is passed through
// verbatim so the error surfaces at the same update it always did. For
// an alternating history of n touches the net effect is:
//
//	first +e, n even: nothing (the edge ends absent, as it began)
//	first +e, n odd:  the last +e alone (edge ends present, last label)
//	first -e, n odd:  the first -e alone (edge ends absent)
//	first -e, n even: -e then the last +e (a relabel/retouch: the edge
//	                  ends present, possibly with a new label, and the
//	                  original label is unknown without the graph)
//
// Kept updates are emitted at the position of the edge's first touch,
// so the output order is the window order of first touches. Distinct
// edges commute within a segment (the alive-vertex set is constant
// between barriers), so any window that applies cleanly still applies
// cleanly after coalescing and yields the same final graph.
type Coalescer struct {
	idx     map[uint64]int32 // edge key -> entries index, reset per segment
	entries []edgeEntry
	src     []int32 // per output: the window index it was emitted at
}

// NewCoalescer returns a Coalescer with empty scratch.
func NewCoalescer() *Coalescer {
	return &Coalescer{idx: make(map[uint64]int32)}
}

// edgeKey normalizes an undirected edge to a map key.
func edgeKey(u, v graph.VertexID) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// Coalesce appends the coalesced form of w to dst and returns it along
// with the window's stats. dst must not alias w; pass a reusable buffer
// (dst[:0]) to avoid allocation.
func (c *Coalescer) Coalesce(dst Stream, w Stream) (Stream, CoalesceStats) {
	st := CoalesceStats{In: len(w)}
	base := len(dst)
	c.src = c.src[:0]
	segStart := 0
	for i := 0; i <= len(w); i++ {
		if i < len(w) && w[i].IsEdge() {
			continue
		}
		// w[segStart:i] is a maximal run of edge ops; w[i] (if any) is
		// a vertex-op barrier that follows it verbatim.
		dst = c.coalesceSegment(dst, w, segStart, i, &st)
		if i < len(w) {
			dst = append(dst, w[i])
			c.src = append(c.src, int32(i))
			st.Barriers++
		}
		segStart = i + 1
	}
	st.Out = len(dst) - base
	return dst, st
}

// Src maps each output of the last Coalesce call to the window index it
// was emitted at: Src()[k] is the (first-touch) position of output k in
// the input window, nondecreasing in k. A retouch emits two outputs with
// the same source position. Window indices absent from Src were dropped
// by coalescing. Valid until the next Coalesce call.
func (c *Coalescer) Src() []int32 { return c.src }

// coalesceSegment folds the edge-op run w[lo:hi] and appends the kept
// updates to dst.
func (c *Coalescer) coalesceSegment(dst Stream, w Stream, lo, hi int, st *CoalesceStats) Stream {
	if hi-lo <= 1 {
		for i := lo; i < hi; i++ {
			c.src = append(c.src, int32(i))
		}
		dst = append(dst, w[lo:hi]...)
		return dst
	}
	clear(c.idx)
	c.entries = c.entries[:0]

	for i := lo; i < hi; i++ {
		k := edgeKey(w[i].U, w[i].V)
		ei, ok := c.idx[k]
		if !ok {
			c.idx[k] = int32(len(c.entries))
			c.entries = append(c.entries, edgeEntry{
				first: int32(i), count: 1,
				lastOp: w[i].Op, last: w[i], alternating: true,
			})
			continue
		}
		e := &c.entries[ei]
		if w[i].Op == e.lastOp {
			e.alternating = false // malformed: same op twice in a row
		}
		e.lastOp = w[i].Op
		e.last = w[i]
		e.count++
	}

	for i := lo; i < hi; i++ {
		e := &c.entries[c.idx[edgeKey(w[i].U, w[i].V)]]
		if !e.alternating || e.count == 1 {
			dst = append(dst, w[i]) // passthrough, in place
			c.src = append(c.src, int32(i))
			continue
		}
		if int(e.first) != i {
			continue // folded into the first touch
		}
		kept := 0
		switch {
		case w[i].Op == AddEdge && e.count%2 == 0:
			// +e ... -e: annihilates entirely.
		case w[i].Op == AddEdge:
			dst = append(dst, e.last) // last touch is the surviving +e
			c.src = append(c.src, int32(i))
			kept = 1
		case e.count%2 == 1:
			dst = append(dst, w[i]) // the first -e alone
			c.src = append(c.src, int32(i))
			kept = 1
		default:
			// -e ... +e: retouch. Keep the deletion and the last insert.
			dst = append(dst, w[i], e.last)
			c.src = append(c.src, int32(i), int32(i))
			kept = 2
		}
		st.AnnihilatedPairs += (int(e.count) - kept) / 2
	}
	return dst
}
