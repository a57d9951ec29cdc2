// Package algobase factors out the search-tree mechanics shared by every
// backtracking CSM baseline: mapping an updated data edge onto compatible
// query-edge orientations (the roots of the search tree T), and extending
// partial embeddings one query vertex at a time along precomputed connected
// matching orders with backward-edge validation.
//
// Algorithms differ in their auxiliary data structure, which plugs in as a
// candidate filter consulted for every (query vertex, data vertex) pair.
package algobase

import (
	"paracosm/internal/csm"
	"paracosm/internal/graph"
	"paracosm/internal/query"
	"paracosm/internal/stream"
)

// FilterFunc is an ADS candidate test: may data vertex v be matched to
// query vertex u? A nil filter admits everything (GraphFlow).
type FilterFunc func(u query.VertexID, v graph.VertexID) bool

// orderInfo caches a matching order and its backward-edge constraints.
type orderInfo struct {
	order []query.VertexID
	back  [][]query.BackEdge
}

// Base implements csm.Enumerator generically.
type Base struct {
	G *graph.Graph
	Q *query.Graph

	// IgnoreELabels disables edge-label matching (CaLiG semantics).
	IgnoreELabels bool

	// Filter is the ADS candidate test; nil admits all and declares the
	// algorithm ADS-free (see DispatchLabels).
	Filter FilterFunc

	// kstats holds the intersection-kernel counters, one single-writer
	// block per searcher slot (csm.State.Slot): the escalated parallel
	// phase calls Expand concurrently from pool workers, and no worker
	// writes a cache line another one writes.
	kstats []graph.KernelStats

	infos []orderInfo // indexed by csm.EncodeOrder
}

// SetSearchers sizes the counter stripes for states carrying slots
// 0..n-1. core.Engine calls it with its searcher count when it adds the
// searchers of its parallel phase, before the first; an engine that never
// escalates keeps the single stripe Init provides. Stripes never shrink, so
// counts survive a re-Init.
func (b *Base) SetSearchers(n int) {
	for len(b.kstats) < n {
		b.kstats = append(b.kstats, graph.KernelStats{})
	}
}

// Kernel returns the counter block of the searcher exploring s.
func (b *Base) Kernel(s *csm.State) *graph.KernelStats { return &b.kstats[s.Slot] }

// KernelCounters sums the stripes. The blocks are plain single-writer
// counters, so it may be called only while no search is in flight on the
// engine — between ProcessUpdate/Run calls, which is when every caller
// (bench harnesses, tests) reads it.
func (b *Base) KernelCounters() graph.KernelCounters {
	var kc graph.KernelCounters
	for i := range b.kstats {
		kc.Add(b.kstats[i].KernelCounters)
	}
	return kc
}

// Init prepares the base for (g, q): it precomputes one matching order per
// query-edge orientation. Algorithms call it from Build.
func (b *Base) Init(g *graph.Graph, q *query.Graph) {
	b.G, b.Q = g, q
	b.SetSearchers(1)
	ne := q.NumEdges()
	b.infos = make([]orderInfo, 2*ne)
	for i := 0; i < ne; i++ {
		for _, flip := range []bool{false, true} {
			eo := query.EdgeOrientation{Index: i, Flipped: flip}
			ord := q.Order(eo)
			b.infos[csm.EncodeOrder(eo)] = orderInfo{
				order: ord,
				back:  q.BackwardNeighbors(ord),
			}
		}
	}
}

// SetOrder overrides the matching order for one query-edge orientation
// (CaLiG reorders kernels before shells). The order must be connected and
// start with the orientation's endpoints.
func (b *Base) SetOrder(eo query.EdgeOrientation, ord []query.VertexID) {
	b.infos[csm.EncodeOrder(eo)] = orderInfo{order: ord, back: b.Q.BackwardNeighbors(ord)}
}

// Order returns the matching order registered for an orientation.
func (b *Base) Order(eo query.EdgeOrientation) []query.VertexID {
	return b.infos[csm.EncodeOrder(eo)].order
}

// Backward returns the precomputed backward-edge constraints of the order
// registered for an orientation, indexed by depth. Callers must not modify
// the result.
func (b *Base) Backward(eo query.EdgeOrientation) [][]query.BackEdge {
	return b.infos[csm.EncodeOrder(eo)].back
}

// Roots implements csm.Enumerator: one root state per query-edge
// orientation the updated edge maps onto, with both endpoint assignments
// validated by label, degree, edge label, and the ADS filter. Vertex
// updates produce no roots (they cannot affect matches, §2.2).
func (b *Base) Roots(upd stream.Update, emit func(csm.State)) {
	if !upd.IsEdge() {
		return
	}
	x, y := upd.U, upd.V
	lx, ly := b.G.Label(x), b.G.Label(y)
	el := upd.ELabel
	if upd.Op == stream.DeleteEdge {
		// The edge is still present during deletion enumeration; use its
		// actual label.
		if l, ok := b.G.EdgeLabel(x, y); ok {
			el = l
		}
	}
	for _, eo := range b.Q.MatchingEdges(lx, ly, el, b.IgnoreELabels) {
		e := b.Q.Edges()[eo.Index]
		a, bb := e.U, e.V
		if eo.Flipped {
			a, bb = bb, a
		}
		// Map x->a, y->bb.
		if b.G.Degree(x) < b.Q.Degree(a) || b.G.Degree(y) < b.Q.Degree(bb) {
			continue
		}
		if b.Filter != nil && (!b.Filter(a, x) || !b.Filter(bb, y)) {
			continue
		}
		s := csm.NewState(csm.EncodeOrder(eo))
		s.Set(a, x)
		s.Set(bb, y)
		emit(s)
	}
}

// Expand implements csm.Enumerator: emit all valid one-vertex extensions
// of s along its matching order.
func (b *Base) Expand(s *csm.State, emit func(csm.State)) {
	info := &b.infos[s.Order]
	if int(s.Depth) >= len(info.order) {
		return
	}
	u := info.order[s.Depth]
	b.ForEachCandidate(s, u, info.back[s.Depth], func(v graph.VertexID) {
		child := *s
		child.Set(u, v)
		emit(child)
	})
}

// CountLastLevel is the body of csm.LeafCounter for an algorithm that keeps
// Base's Expand and Terminal: at the last position of s's matching order it
// returns the size of the compatible set, which is how many leaves Expand
// would have emitted. Base deliberately does not carry the interface's
// method name. An algorithm that overrides Expand (NewSP's lookahead) or
// Terminal (CaLiG's shell counting) embeds Base too, and an inherited count
// would contradict its own traversal, so each algorithm opts in with a
// one-line CountLeaves of its own.
//
//paracosm:noalloc
func (b *Base) CountLastLevel(s *csm.State) (uint64, bool) {
	info := &b.infos[s.Order]
	if int(s.Depth)+1 != len(info.order) {
		return 0, false
	}
	return b.ForEachCandidate(s, info.order[s.Depth], info.back[s.Depth], nil), true
}

// ForEachCandidate enumerates the compatible set C(u, s) (Definition 2.5):
// data vertices adjacent to all matched backward neighbors of u with
// matching labels, unused, degree-feasible, and admitted by the ADS
// filter. It returns the set's size, and a nil yield asks for the size
// alone. u must be the vertex at position s.Depth of s's matching order and
// back its backward edges, with the first s.Depth vertices of that order
// matched: what Expand passes, and what algorithms implementing custom
// expansion (NewSP's lookahead) pass too.
//
// The enumeration is a k-way zipper over the label-sliced adjacency runs of
// the matched backward neighbors: the shortest run is the anchor, and a
// monotonic cursor per remaining run is advanced with
// graph.AdvanceNeighbors (linear probe + gallop). All cursor state lives in
// fixed-size stack arrays, so the enumeration itself allocates nothing.
//
//paracosm:noalloc
func (b *Base) ForEachCandidate(s *csm.State, u query.VertexID, back []query.BackEdge, yield func(v graph.VertexID)) uint64 {
	if len(back) == 0 {
		return 0 // only root positions have no backward neighbors
	}
	info := &b.infos[s.Order]
	lu := b.Q.Label(u)

	// One label-run fetch per backward neighbor; the shortest is the anchor.
	var (
		runs    [query.MaxVertices][]graph.Neighbor
		elabels [query.MaxVertices]graph.Label
		pos     [query.MaxVertices]int
	)
	anchorIdx := 0
	for i, be := range back {
		runs[i] = b.G.NeighborsWithLabel(s.Map[info.order[be.Pos]], lu)
		elabels[i] = be.ELabel
		if len(runs[i]) < len(runs[anchorIdx]) {
			anchorIdx = i
		}
	}
	cand, anchorEL := runs[anchorIdx], elabels[anchorIdx]
	ks := b.Kernel(s)
	ks.AddCandidateLookup(len(cand) < b.G.Degree(s.Map[info.order[back[anchorIdx].Pos]]))
	if len(cand) == 0 {
		return 0
	}
	// The remaining runs keep their order, cursors starting at 0.
	k := len(back) - 1
	copy(runs[anchorIdx:k], runs[anchorIdx+1:])
	copy(elabels[anchorIdx:k], elabels[anchorIdx+1:])

	// A candidate that passes the zipper is adjacent to len(back) distinct
	// matched vertices, so the degree test can only reject when u needs more
	// neighbors than that.
	du := b.Q.Degree(u)
	checkDegree := du > len(back)
	// Injectivity is tested against the matched vertices only, not all of
	// State.Map's slots.
	var matched [query.MaxVertices]graph.VertexID
	depth := int(s.Depth)
	for i, w := range info.order[:depth] {
		matched[i] = s.Map[w]
	}

	var n, probes, galloped uint64
zip:
	for _, nb := range cand {
		if !b.IgnoreELabels && nb.ELabel != anchorEL {
			continue
		}
		v := nb.ID
		if checkDegree && b.G.Degree(v) < du {
			continue
		}
		for _, m := range matched[:depth] {
			if m == v {
				continue zip
			}
		}
		for i := 0; i < k; i++ {
			j, g := graph.AdvanceNeighbors(runs[i], pos[i], v)
			probes++
			if g {
				galloped++
			}
			if j == len(runs[i]) {
				// This run is exhausted; no later candidate (candidates
				// ascend by ID) can satisfy its backward edge either.
				break zip
			}
			pos[i] = j
			if runs[i][j].ID != v || (!b.IgnoreELabels && runs[i][j].ELabel != elabels[i]) {
				continue zip
			}
		}
		if b.Filter != nil && !b.Filter(u, v) {
			continue
		}
		n++
		if yield != nil {
			yield(v)
		}
	}
	if k > 0 {
		ks.AddIntersection(probes, galloped)
	}
	return n
}

// Terminal implements csm.Enumerator for ordinary full-enumeration
// algorithms: a state is a leaf exactly when every query vertex is matched.
func (b *Base) Terminal(s *csm.State) (uint64, bool) {
	if int(s.Depth) == b.Q.NumVertices() {
		return 1, true
	}
	return 0, false
}

// Relevant implements the label and degree filters (stages 1-2 of
// ParaCOSM's update classifier) from the pre-application viewpoint: for an
// insertion the endpoint degrees are taken as they will be once the edge
// exists. It reports whether the update could map onto any query edge.
func (b *Base) Relevant(upd stream.Update) bool {
	if !upd.IsEdge() {
		return false
	}
	x, y := upd.U, upd.V
	lx, ly := b.G.Label(x), b.G.Label(y)
	el := upd.ELabel
	if upd.Op == stream.DeleteEdge {
		if l, ok := b.G.EdgeLabel(x, y); ok {
			el = l
		}
	}
	dx, dy := b.G.Degree(x), b.G.Degree(y)
	if upd.Op == stream.AddEdge {
		dx, dy = dx+1, dy+1
	}
	for _, eo := range b.Q.MatchingEdges(lx, ly, el, b.IgnoreELabels) {
		e := b.Q.Edges()[eo.Index]
		a, bb := e.U, e.V
		if eo.Flipped {
			a, bb = bb, a
		}
		if dx >= b.Q.Degree(a) && dy >= b.Q.Degree(bb) {
			return true
		}
	}
	return false
}

// DispatchLabels implements csm.LabelDispatch. The label stage of
// RelevantStages passes exactly the endpoint-label pairs of the query's
// edges. An algorithm that installed a Filter keeps an ADS whose entries
// read endpoint degrees (dpindex's static test, CaLiG's lighting), so a
// label-safe update at a vertex carrying a query-vertex label can still
// flip them; without a Filter there is no ADS and UpdateADS is empty.
func (b *Base) DispatchLabels() ([][2]graph.Label, bool) {
	return b.Q.EdgeLabelPairs(), b.Filter != nil
}

// RelevantStages reports the outcome of the label filter and the degree
// filter separately, for the classifier's per-stage statistics (Figure 12).
func (b *Base) RelevantStages(upd stream.Update) (passLabel, passDegree bool) {
	if !upd.IsEdge() {
		return false, false
	}
	x, y := upd.U, upd.V
	lx, ly := b.G.Label(x), b.G.Label(y)
	el := upd.ELabel
	if upd.Op == stream.DeleteEdge {
		if l, ok := b.G.EdgeLabel(x, y); ok {
			el = l
		}
	}
	eos := b.Q.MatchingEdges(lx, ly, el, b.IgnoreELabels)
	if len(eos) == 0 {
		return false, false
	}
	dx, dy := b.G.Degree(x), b.G.Degree(y)
	if upd.Op == stream.AddEdge {
		dx, dy = dx+1, dy+1
	}
	for _, eo := range eos {
		e := b.Q.Edges()[eo.Index]
		a, bb := e.U, e.V
		if eo.Flipped {
			a, bb = bb, a
		}
		if dx >= b.Q.Degree(a) && dy >= b.Q.Degree(bb) {
			return true, true
		}
	}
	return true, false
}
