// Package sjtree implements the SJ-Tree baseline (Choudhury et al., the
// "subgraph join tree" of selectivity-based continuous pattern detection)
// in the general CSM model. Unlike every backtracking algorithm in this
// repository, SJ-Tree is *join-based*: it maintains materialized tables of
// partial matches for a left-deep join decomposition of the query — table
// T_i holds every embedding of the first i query edges — so an edge
// insertion only joins against existing tables instead of re-searching the
// graph, at the cost of the O(|E(G)|^|E(Q)|) table memory of Table 1.
//
// Incremental semantics follow the classic delta-join rule: for an
// inserted edge mapped onto join position i, new entries are
// old-prefix ⋈ Δe_i ⋈ new-suffix, which counts every new embedding exactly
// once even when the edge maps onto several positions. Deletions scan the
// tables for entries using the deleted edge; entries leaving the root
// table are the expired matches.
package sjtree

import (
	"paracosm/internal/csm"
	"paracosm/internal/graph"
	"paracosm/internal/query"
	"paracosm/internal/stream"
)

// assignment is a partial embedding keyed for table storage.
type assignment [query.MaxVertices]graph.VertexID

func emptyAssignment() assignment {
	var a assignment
	for i := range a {
		a[i] = graph.NoVertex
	}
	return a
}

func (a *assignment) key(covered []query.VertexID) string {
	b := make([]byte, 0, 4*len(covered))
	for _, u := range covered {
		v := a[u]
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(b)
}

func (a *assignment) uses(v graph.VertexID) bool {
	for _, m := range a {
		if m == v {
			return true
		}
	}
	return false
}

// SJTree is the join-based CSM baseline.
type SJTree struct {
	g *graph.Graph
	q *query.Graph

	// order is a connected ordering of the query edges; covered[i] lists
	// the query vertices bound after joining edges order[0..i].
	order   []query.Edge
	covered [][]query.VertexID

	// tables[i] materializes all embeddings of edges order[0..i].
	tables []map[string]assignment

	// pending buffers ΔM⁺ between UpdateADS (where the delta joins
	// happen) and Roots (where the engine collects results). Deletions
	// need no buffer: Roots runs before the removal and scans the root
	// table directly.
	pending []assignment
}

// New returns an SJ-Tree instance.
func New() *SJTree { return &SJTree{} }

var _ csm.Algorithm = (*SJTree)(nil)

// Name implements csm.Algorithm.
func (a *SJTree) Name() string { return "SJ-Tree" }

// Build implements csm.Algorithm: pick a connected join order and
// materialize the initial tables bottom-up.
func (a *SJTree) Build(g *graph.Graph, q *query.Graph) error {
	a.g, a.q = g, q
	a.buildOrder()
	a.rebuildTables()
	return nil
}

// buildOrder greedily orders the query edges so each one shares a vertex
// with the prefix.
func (a *SJTree) buildOrder() {
	edges := a.q.Edges()
	used := make([]bool, len(edges))
	inCover := make(map[query.VertexID]bool)
	a.order = a.order[:0]
	a.covered = a.covered[:0]
	var cov []query.VertexID
	addVertex := func(u query.VertexID) {
		if !inCover[u] {
			inCover[u] = true
			cov = append(cov, u)
		}
	}
	for len(a.order) < len(edges) {
		pick := -1
		for i, e := range edges {
			if used[i] {
				continue
			}
			if len(a.order) == 0 || inCover[e.U] || inCover[e.V] {
				pick = i
				break
			}
		}
		if pick < 0 {
			break // disconnected queries are rejected by query.Finalize
		}
		used[pick] = true
		a.order = append(a.order, edges[pick])
		addVertex(edges[pick].U)
		addVertex(edges[pick].V)
		a.covered = append(a.covered, append([]query.VertexID(nil), cov...))
	}
}

// rebuildTables recomputes every table from the current graph.
func (a *SJTree) rebuildTables() {
	m := len(a.order)
	a.tables = make([]map[string]assignment, m)
	for i := range a.tables {
		a.tables[i] = make(map[string]assignment)
	}
	// Level 0: all embeddings of the first edge.
	e0 := a.order[0]
	a.forEachEdgeEmbedding(e0, func(x, y graph.VertexID) {
		as := emptyAssignment()
		as[e0.U], as[e0.V] = x, y
		a.tables[0][as.key(a.covered[0])] = as
	})
	// Higher levels: extend every lower entry by the next edge.
	for i := 1; i < m; i++ {
		for _, as := range a.tables[i-1] {
			as := as
			a.extend(&as, i, func(res assignment) {
				a.tables[i][res.key(a.covered[i])] = res
			})
		}
	}
}

// forEachEdgeEmbedding yields every data edge embedding of query edge e
// (both orientations when labels permit).
func (a *SJTree) forEachEdgeEmbedding(e query.Edge, yield func(x, y graph.VertexID)) {
	lu, lv := a.q.Label(e.U), a.q.Label(e.V)
	for _, x := range a.g.VerticesWithLabel(lu) {
		if !a.g.Alive(x) {
			continue
		}
		for _, nb := range a.g.NeighborsWithLabel(x, lv) {
			if nb.ELabel != e.ELabel {
				continue
			}
			yield(x, nb.ID)
		}
	}
}

// extend joins one table entry with edge order[i] against the current
// graph, yielding every consistent extension.
func (a *SJTree) extend(as *assignment, i int, yield func(assignment)) {
	e := a.order[i]
	mu, mv := as[e.U], as[e.V]
	switch {
	case mu != graph.NoVertex && mv != graph.NoVertex:
		// Closing edge: both endpoints bound; check existence.
		if l, ok := a.g.EdgeLabel(mu, mv); ok && l == e.ELabel {
			yield(*as)
		}
	case mu != graph.NoVertex:
		for _, nb := range a.g.NeighborsWithLabel(mu, a.q.Label(e.V)) {
			if nb.ELabel == e.ELabel && !as.uses(nb.ID) {
				res := *as
				res[e.V] = nb.ID
				yield(res)
			}
		}
	case mv != graph.NoVertex:
		for _, nb := range a.g.NeighborsWithLabel(mv, a.q.Label(e.U)) {
			if nb.ELabel == e.ELabel && !as.uses(nb.ID) {
				res := *as
				res[e.U] = nb.ID
				yield(res)
			}
		}
	default:
		// Unreachable for a connected join order past level 0.
	}
}

// UpdateADS implements csm.Algorithm: delta joins for insertions, table
// scans for deletions. Called after the graph mutation.
func (a *SJTree) UpdateADS(upd stream.Update) {
	switch upd.Op {
	case stream.AddEdge:
		a.applyInsert(upd)
	case stream.DeleteEdge:
		a.applyDelete(upd)
	case stream.AddVertex, stream.DeleteVertex:
		// No table content references isolated vertices.
	}
}

// applyInsert computes, for every join position the new edge maps onto,
// old-prefix ⋈ Δe ⋈ new-suffix, merging the per-level deltas afterwards
// (so prefixes stay "old" during the computation) and buffering the
// root-table delta as ΔM⁺.
func (a *SJTree) applyInsert(upd stream.Update) {
	m := len(a.order)
	deltas := make([]map[string]assignment, m)
	for i := range deltas {
		deltas[i] = make(map[string]assignment)
	}
	x, y := upd.U, upd.V
	lx, ly := a.g.Label(x), a.g.Label(y)

	for i, e := range a.order {
		lu, lv := a.q.Label(e.U), a.q.Label(e.V)
		var seeds []assignment
		addSeed := func(vx, vy graph.VertexID) {
			if i == 0 {
				as := emptyAssignment()
				as[e.U], as[e.V] = vx, vy
				seeds = append(seeds, as)
				return
			}
			for _, prev := range a.tables[i-1] {
				// Compatibility with the prefix entry: endpoint bindings
				// must agree, unbound data vertices must be fresh.
				bu, bv := prev[e.U], prev[e.V]
				if bu != graph.NoVertex && bu != vx {
					continue
				}
				if bv != graph.NoVertex && bv != vy {
					continue
				}
				if bu == graph.NoVertex && prev.uses(vx) {
					continue
				}
				if bv == graph.NoVertex && prev.uses(vy) {
					continue
				}
				as := prev
				as[e.U], as[e.V] = vx, vy
				seeds = append(seeds, as)
			}
		}
		if e.ELabel == upd.ELabel {
			if lu == lx && lv == ly {
				addSeed(x, y)
			}
			if lu == ly && lv == lx {
				addSeed(y, x)
			}
		}
		// Extend each seed through the suffix against the new graph.
		for _, seed := range seeds {
			a.extendThrough(seed, i+1, deltas)
			deltas[i][keyOf(&seed, a.covered[i])] = seed
		}
	}

	// Merge deltas and emit the root-level additions as ΔM⁺.
	for i := range deltas {
		for k, as := range deltas[i] {
			if _, exists := a.tables[i][k]; !exists {
				a.tables[i][k] = as
				if i == m-1 {
					a.pending = append(a.pending, as)
				}
			}
		}
	}
}

func keyOf(as *assignment, covered []query.VertexID) string { return as.key(covered) }

// extendThrough extends one seed assignment at level i-1 through levels
// i..m-1 against the current graph, recording every intermediate result.
func (a *SJTree) extendThrough(seed assignment, from int, deltas []map[string]assignment) {
	if from >= len(a.order) {
		return
	}
	a.extend(&seed, from, func(res assignment) {
		deltas[from][keyOf(&res, a.covered[from])] = res
		a.extendThrough(res, from+1, deltas)
	})
}

// applyDelete removes every table entry whose covered edges use the
// deleted data edge. Called after the graph mutation, so membership is
// recomputed structurally rather than against adjacency.
func (a *SJTree) applyDelete(upd stream.Update) {
	x, y := upd.U, upd.V
	for i, tab := range a.tables {
		for k, as := range tab {
			if a.assignmentUsesEdge(&as, i, x, y) {
				delete(tab, k)
			}
		}
	}
}

// assignmentUsesEdge reports whether the entry (at level i) maps one of
// its covered query edges onto data edge (x,y).
func (a *SJTree) assignmentUsesEdge(as *assignment, level int, x, y graph.VertexID) bool {
	for i := 0; i <= level; i++ {
		e := a.order[i]
		mu, mv := as[e.U], as[e.V]
		if (mu == x && mv == y) || (mu == y && mv == x) {
			return true
		}
	}
	return false
}

// AffectsADS implements csm.Algorithm: SJ-Tree has no degree pruning, so
// an update is unsafe exactly when its labels match some query edge.
func (a *SJTree) AffectsADS(upd stream.Update) bool {
	if !upd.IsEdge() {
		return false
	}
	x, y := upd.U, upd.V
	el := upd.ELabel
	if upd.Op == stream.DeleteEdge {
		if l, ok := a.g.EdgeLabel(x, y); ok {
			el = l
		}
	}
	return len(a.q.MatchingEdges(a.g.Label(x), a.g.Label(y), el, false)) > 0
}

// Roots implements csm.Enumerator. For insertions it drains the ΔM⁺
// buffered by UpdateADS; for deletions (called before the mutation) it
// scans the root table for matches using the doomed edge.
func (a *SJTree) Roots(upd stream.Update, emit func(csm.State)) {
	n := uint8(a.q.NumVertices())
	emitAssignment := func(as assignment) {
		s := csm.NewState(0)
		s.Map = as
		s.Depth = n
		emit(s)
	}
	switch upd.Op {
	case stream.AddEdge:
		for _, as := range a.pending {
			emitAssignment(as)
		}
		a.pending = a.pending[:0]
	case stream.DeleteEdge:
		root := len(a.order) - 1
		for _, as := range a.tables[root] {
			if a.assignmentUsesEdge(&as, root, upd.U, upd.V) {
				emitAssignment(as)
			}
		}
	}
}

// Expand implements csm.Enumerator: join results are complete, there is
// nothing to expand.
func (a *SJTree) Expand(*csm.State, func(csm.State)) {}

// Terminal implements csm.Enumerator: every emitted state is a full match.
func (a *SJTree) Terminal(s *csm.State) (uint64, bool) {
	return 1, s.Depth == uint8(a.q.NumVertices())
}

// RebuildADS implements csm.Rebuilder: compares incrementally maintained
// tables with a from-scratch rebuild.
func (a *SJTree) RebuildADS() bool {
	old := a.tables
	a.rebuildTables()
	fresh := a.tables
	a.tables = old
	if len(fresh) != len(old) {
		return false
	}
	for i := range fresh {
		if len(fresh[i]) != len(old[i]) {
			return false
		}
		for k := range fresh[i] {
			if _, ok := old[i][k]; !ok {
				return false
			}
		}
	}
	return true
}

// TableSizes returns the materialized table cardinalities (the memory
// footprint Table 1 warns about).
func (a *SJTree) TableSizes() []int {
	out := make([]int, len(a.tables))
	for i, t := range a.tables {
		out[i] = len(t)
	}
	return out
}
