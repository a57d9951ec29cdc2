// Package refmatch is an independent, deliberately simple static subgraph
// matcher. It recomputes the full match set M(Q,G) from scratch and diffs
// it across an update — the IncIsoMatch-style recomputation baseline of
// Table 1 — providing the ground truth every incremental algorithm and
// every ParaCOSM configuration is validated against.
//
// It shares no code with the incremental algorithms so that a bug in the
// shared machinery cannot hide in both sides of a comparison.
package refmatch

import (
	"sort"

	"paracosm/internal/graph"
	"paracosm/internal/query"
	"paracosm/internal/stream"
)

// Options tweak matching semantics.
type Options struct {
	// IgnoreELabels disables edge-label comparison (the paper strips edge
	// labels when evaluating CaLiG, which does not support them).
	IgnoreELabels bool
}

// Count returns |M(Q,G)|: the number of injective label- and
// edge-preserving mappings V(Q) -> V(G) (Definition 2.2).
//
//lint:ignore deadexport test oracle: the reference matcher every engine, algorithm and server test checks against
func Count(g *graph.Graph, q *query.Graph, opt Options) uint64 {
	var n uint64
	enumerate(g, q, opt, func([]graph.VertexID) bool { n++; return true })
	return n
}

// Enumerate invokes yield for every match; the mapping slice is reused
// between calls (copy it to retain). Returning false stops enumeration.
//
//lint:ignore deadexport test oracle: the reference matcher every engine, algorithm and server test checks against
func Enumerate(g *graph.Graph, q *query.Graph, opt Options, yield func(m []graph.VertexID) bool) {
	enumerate(g, q, opt, yield)
}

// Matches returns every match as a canonical string key -> count multiset,
// for exact set comparisons in tests.
//
//lint:ignore deadexport test oracle: the reference matcher every engine, algorithm and server test checks against
func Matches(g *graph.Graph, q *query.Graph, opt Options) map[string]int {
	out := make(map[string]int)
	buf := make([]byte, 0, 64)
	enumerate(g, q, opt, func(m []graph.VertexID) bool {
		buf = buf[:0]
		for _, v := range m {
			buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		out[string(buf)]++
		return true
	})
	return out
}

// Delta recomputes the incremental match set ΔM for applying upd to g:
// pos matches appear, neg matches expire. g is not modified.
//
//lint:ignore deadexport test oracle: the reference matcher every engine, algorithm and server test checks against
func Delta(g *graph.Graph, q *query.Graph, upd stream.Update, opt Options) (pos, neg uint64) {
	before := Matches(g, q, opt)
	h := g.Clone()
	if err := upd.Apply(h); err != nil {
		// An inapplicable update changes nothing.
		return 0, 0
	}
	after := Matches(h, q, opt)
	for k, c := range after {
		if c > before[k] {
			pos += uint64(c - before[k])
		}
	}
	for k, c := range before {
		if c > after[k] {
			neg += uint64(c - after[k])
		}
	}
	return pos, neg
}

// enumerate is a straightforward connected-order backtracking matcher.
func enumerate(g *graph.Graph, q *query.Graph, opt Options, yield func([]graph.VertexID) bool) {
	n := q.NumVertices()
	order := staticOrder(g, q)
	back := q.BackwardNeighbors(order)

	mapping := make([]graph.VertexID, n) // query vertex -> data vertex
	for i := range mapping {
		mapping[i] = graph.NoVertex
	}
	out := make([]graph.VertexID, n)
	stopped := false

	var rec func(pos int)
	rec = func(pos int) {
		if stopped {
			return
		}
		if pos == n {
			copy(out, mapping)
			if !yield(out) {
				stopped = true
			}
			return
		}
		u := order[pos]
		for _, v := range candidates(g, q, opt, u, order, back[pos], mapping) {
			mapping[u] = v
			rec(pos + 1)
			mapping[u] = graph.NoVertex
			if stopped {
				return
			}
		}
	}
	rec(0)
}

// candidates returns the compatible set C(u, mapping) (Definition 2.5).
func candidates(g *graph.Graph, q *query.Graph, opt Options, u query.VertexID, order []query.VertexID, back []query.BackEdge, mapping []graph.VertexID) []graph.VertexID {
	var cands []graph.VertexID
	if len(back) == 0 {
		// First vertex: all data vertices with the right label and degree.
		for _, v := range g.VerticesWithLabel(q.Label(u)) {
			if g.Alive(v) && g.Degree(v) >= q.Degree(u) {
				cands = append(cands, v)
			}
		}
	} else {
		// Seed from the matched backward neighbor with minimum degree.
		bestPos := back[0].Pos
		for _, b := range back[1:] {
			if g.Degree(mapping[order[b.Pos]]) < g.Degree(mapping[order[bestPos]]) {
				bestPos = b.Pos
			}
		}
		anchor := mapping[order[bestPos]]
		for _, nb := range g.Neighbors(anchor) {
			v := nb.ID
			if g.Label(v) != q.Label(u) || g.Degree(v) < q.Degree(u) {
				continue
			}
			cands = append(cands, v)
		}
	}
	// Filter by injectivity and all backward edges (with labels).
	outIdx := 0
	for _, v := range cands {
		ok := true
		for _, m := range mapping {
			if m == v {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, b := range back {
			w := mapping[order[b.Pos]]
			el, exists := g.EdgeLabel(v, w)
			if !exists || (!opt.IgnoreELabels && el != b.ELabel) {
				ok = false
				break
			}
		}
		if ok {
			cands[outIdx] = v
			outIdx++
		}
	}
	return cands[:outIdx]
}

// staticOrder picks a connected matching order: start at the query vertex
// with the fewest data candidates per degree, then greedily extend by most
// backward neighbors.
func staticOrder(g *graph.Graph, q *query.Graph) []query.VertexID {
	n := q.NumVertices()
	type cand struct {
		u     query.VertexID
		score int
	}
	cs := make([]cand, n)
	for u := 0; u < n; u++ {
		cs[u] = cand{query.VertexID(u), len(g.VerticesWithLabel(q.Label(query.VertexID(u))))}
	}
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].score != cs[j].score {
			return cs[i].score < cs[j].score
		}
		return q.Degree(cs[i].u) > q.Degree(cs[j].u)
	})
	start := cs[0].u

	order := make([]query.VertexID, 0, n)
	inOrder := make([]bool, n)
	order = append(order, start)
	inOrder[start] = true
	backDeg := make([]int, n)
	for _, nb := range q.Neighbors(start) {
		backDeg[nb.ID]++
	}
	for len(order) < n {
		best := -1
		for v := 0; v < n; v++ {
			if inOrder[v] || backDeg[v] == 0 {
				continue
			}
			if best < 0 || backDeg[v] > backDeg[best] ||
				(backDeg[v] == backDeg[best] && q.Degree(query.VertexID(v)) > q.Degree(query.VertexID(best))) {
				best = v
			}
		}
		if best < 0 {
			break
		}
		order = append(order, query.VertexID(best))
		inOrder[best] = true
		for _, nb := range q.Neighbors(query.VertexID(best)) {
			backDeg[nb.ID]++
		}
	}
	return order
}
