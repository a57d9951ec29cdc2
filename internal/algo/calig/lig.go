package calig

import (
	"paracosm/internal/graph"
	"paracosm/internal/query"
	"paracosm/internal/stream"
)

// lig is the lighting index: lit[u][v] records whether data vertex v is
// "lighted" for query vertex u, i.e. v passes the static label/degree test
// and every query neighbor u' of u has at least one supporting data
// neighbor v' of v (matching label and sufficient degree). CaLiG ignores
// edge labels, so support is label-only.
//
// Because support consults only the labels and degrees of v's neighbors
// (not their lit state), an edge update (x,y) can change lit entries only
// for x, y and their direct neighbors, which keeps incremental maintenance
// exact and local.
type lig struct {
	g   *graph.Graph
	q   *query.Graph
	lit [][]bool // [query vertex][data vertex]
}

func newLIG(g *graph.Graph, q *query.Graph) *lig {
	ix := &lig{g: g, q: q}
	ix.lit = ix.computeAll()
	return ix
}

func (ix *lig) computeAll() [][]bool {
	n := ix.q.NumVertices()
	nv := ix.g.NumVertices()
	lit := make([][]bool, n)
	for u := 0; u < n; u++ {
		lit[u] = make([]bool, nv)
		for v := 0; v < nv; v++ {
			lit[u][v] = ix.compute(query.VertexID(u), graph.VertexID(v))
		}
	}
	return lit
}

// compute evaluates lit(u,v) against the current graph.
func (ix *lig) compute(u query.VertexID, v graph.VertexID) bool {
	if !ix.g.Alive(v) || ix.g.Label(v) != ix.q.Label(u) || ix.g.Degree(v) < ix.q.Degree(u) {
		return false
	}
	for _, uq := range ix.q.Neighbors(u) {
		du := ix.q.Degree(uq.ID)
		// Support requires a neighbor carrying uq's label: scan only that
		// label run of v's adjacency.
		found := false
		for _, nb := range ix.g.NeighborsWithLabel(v, ix.q.Label(uq.ID)) {
			if ix.g.Degree(nb.ID) >= du {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// lighted reports the lighting state of (u, v).
func (ix *lig) lighted(u query.VertexID, v graph.VertexID) bool {
	return int(v) < len(ix.lit[u]) && ix.lit[u][v]
}

// apply maintains the index after upd has been applied to the graph.
func (ix *lig) apply(upd stream.Update) {
	switch upd.Op {
	case stream.AddVertex:
		for u := range ix.lit {
			for ix.g.NumVertices() > len(ix.lit[u]) {
				ix.lit[u] = append(ix.lit[u], false)
			}
		}
	case stream.DeleteVertex:
		// Isolated vertices are never lit; nothing to do.
	case stream.AddEdge, stream.DeleteEdge:
		ix.recomputeAround(upd.U)
		ix.recomputeAround(upd.V)
	}
}

// recomputeAround refreshes the lit entries of w and its neighbors (the
// exact affected set for a degree/adjacency change at w).
func (ix *lig) recomputeAround(w graph.VertexID) {
	ix.recomputeVertex(w)
	for _, nb := range ix.g.Neighbors(w) {
		ix.recomputeVertex(nb.ID)
	}
}

func (ix *lig) recomputeVertex(v graph.VertexID) {
	if int(v) >= len(ix.lit[0]) {
		return
	}
	for u := range ix.lit {
		ix.lit[u][v] = ix.compute(query.VertexID(u), v)
	}
}

// consistent recomputes the whole index and compares (csm.Rebuilder).
func (ix *lig) consistent() bool {
	fresh := ix.computeAll()
	for u := range fresh {
		for v := range fresh[u] {
			got := false
			if v < len(ix.lit[u]) {
				got = ix.lit[u][v]
			}
			if fresh[u][v] != got {
				return false
			}
		}
	}
	return true
}

// hview is a hypothetical graph view with one edge toggled relative to the
// real graph; wouldChange uses it to evaluate the post-update index without
// mutating anything.
type hview struct {
	g    *graph.Graph
	x, y graph.VertexID
	add  bool // true: edge (x,y) pretended present; false: pretended absent
}

func (h hview) degree(v graph.VertexID) int {
	d := h.g.Degree(v)
	if v == h.x || v == h.y {
		if h.add {
			d++
		} else {
			d--
		}
	}
	return d
}

func (h hview) neighbors(v graph.VertexID, yield func(graph.VertexID)) {
	other := graph.NoVertex
	if v == h.x {
		other = h.y
	} else if v == h.y {
		other = h.x
	}
	for _, nb := range h.g.Neighbors(v) {
		if !h.add && nb.ID == other {
			continue // edge pretended deleted
		}
		yield(nb.ID)
	}
	if h.add && other != graph.NoVertex {
		yield(other)
	}
}

// neighborsWithLabel is the label-sliced variant of neighbors: it yields
// only data neighbors of v carrying vertex label l, using the graph's label
// run and applying the toggled edge on top.
func (h hview) neighborsWithLabel(v graph.VertexID, l graph.Label, yield func(graph.VertexID)) {
	other := graph.NoVertex
	if v == h.x {
		other = h.y
	} else if v == h.y {
		other = h.x
	}
	for _, nb := range h.g.NeighborsWithLabel(v, l) {
		if !h.add && nb.ID == other {
			continue // edge pretended deleted
		}
		yield(nb.ID)
	}
	if h.add && other != graph.NoVertex && h.g.Label(other) == l {
		yield(other)
	}
}

// computeHypo evaluates lit(u,v) against the hypothetical view.
func (ix *lig) computeHypo(h hview, u query.VertexID, v graph.VertexID) bool {
	if !ix.g.Alive(v) || ix.g.Label(v) != ix.q.Label(u) || h.degree(v) < ix.q.Degree(u) {
		return false
	}
	for _, uq := range ix.q.Neighbors(u) {
		du := ix.q.Degree(uq.ID)
		found := false
		h.neighborsWithLabel(v, ix.q.Label(uq.ID), func(w graph.VertexID) {
			if !found && h.degree(w) >= du {
				found = true
			}
		})
		if !found {
			return false
		}
	}
	return true
}

// wouldChange reports whether applying upd would alter any lit entry.
// Called before the update is applied.
func (ix *lig) wouldChange(upd stream.Update) bool {
	if !upd.IsEdge() {
		return false
	}
	h := hview{g: ix.g, x: upd.U, y: upd.V, add: upd.Op == stream.AddEdge}
	check := func(v graph.VertexID) bool {
		for u := range ix.lit {
			if ix.computeHypo(h, query.VertexID(u), v) != ix.lighted(query.VertexID(u), v) {
				return true
			}
		}
		return false
	}
	seen := map[graph.VertexID]bool{}
	probe := func(v graph.VertexID) bool {
		if seen[v] {
			return false
		}
		seen[v] = true
		return check(v)
	}
	if probe(upd.U) || probe(upd.V) {
		return true
	}
	changed := false
	h.neighbors(upd.U, func(w graph.VertexID) {
		if !changed && probe(w) {
			changed = true
		}
	})
	if changed {
		return true
	}
	h.neighbors(upd.V, func(w graph.VertexID) {
		if !changed && probe(w) {
			changed = true
		}
	})
	return changed
}
