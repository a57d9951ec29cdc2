// Package dpindex implements a dynamically maintained bidirectional
// dynamic-programming candidate index over a directed acyclic "skeleton"
// of the query graph. It generalizes the two classic CSM auxiliary data
// structures the ParaCOSM paper parallelizes:
//
//   - TurboFlux's DCG: the skeleton is a BFS spanning tree, candidate
//     states correspond to the NULL -> IMPLICIT -> EXPLICIT transitions
//     (implicit = top-down support D1, explicit = D1 plus bottom-up
//     support D2);
//   - Symbi's DCS: the skeleton is the full BFS DAG of the query, and
//     D1/D2 are exactly Symbi's top-down and bottom-up dynamic programs.
//
// For every (query vertex u, data vertex v) the index maintains
//
//	D1[u][v] = static(u,v) AND for every skeleton parent p of u there is a
//	           neighbor w of v with a label-compatible edge and D1[p][w]
//	D2[u][v] = static(u,v) AND for every skeleton child c of u there is a
//	           neighbor w of v with a label-compatible edge and D2[c][w]
//
// where static(u,v) checks vertex label and degree. v is a candidate of u
// iff D1 and D2 both hold. Updates are maintained incrementally by a
// worklist fixpoint seeded at the updated edge's endpoints; the dependency
// structure is acyclic (D1 depends on parents only, D2 on children only),
// so the fixpoint terminates.
package dpindex

import (
	"paracosm/internal/graph"
	"paracosm/internal/query"
	"paracosm/internal/stream"
)

// Skeleton is the DAG the dynamic programs run over.
type Skeleton struct {
	Parents  [][]query.Neighbor // per query vertex, incoming skeleton edges
	Children [][]query.Neighbor // per query vertex, outgoing skeleton edges
	TopoOrd  []query.VertexID   // topological order, roots first
}

// TreeSkeleton builds a skeleton from a spanning tree (TurboFlux).
func TreeSkeleton(q *query.Graph, t *query.SpanningTree) *Skeleton {
	n := q.NumVertices()
	s := &Skeleton{
		Parents:  make([][]query.Neighbor, n),
		Children: make([][]query.Neighbor, n),
		TopoOrd:  t.BFSOrder,
	}
	for v := 0; v < n; v++ {
		u := query.VertexID(v)
		if t.Parent[u] != u {
			el, _ := q.EdgeLabel(t.Parent[u], u)
			s.Parents[u] = append(s.Parents[u], query.Neighbor{ID: t.Parent[u], ELabel: el})
		}
		for _, c := range t.Children[u] {
			el, _ := q.EdgeLabel(u, c)
			s.Children[u] = append(s.Children[u], query.Neighbor{ID: c, ELabel: el})
		}
	}
	return s
}

// DAGSkeleton builds a skeleton from the full query DAG (Symbi).
func DAGSkeleton(d *query.DAG) *Skeleton {
	return &Skeleton{Parents: d.Parents, Children: d.Children, TopoOrd: d.TopoOrd}
}

// Index is the dynamic candidate index.
type Index struct {
	g  *graph.Graph
	q  *query.Graph
	sk *Skeleton

	ignoreELabels bool

	d1, d2 [][]bool // [query vertex][data vertex]
}

// New builds the index for (g, q) over the skeleton.
func New(g *graph.Graph, q *query.Graph, sk *Skeleton, ignoreELabels bool) *Index {
	ix := &Index{g: g, q: q, sk: sk, ignoreELabels: ignoreELabels}
	ix.rebuild()
	return ix
}

func (ix *Index) alloc() ([][]bool, [][]bool) {
	n := ix.q.NumVertices()
	nv := ix.g.NumVertices()
	d1 := make([][]bool, n)
	d2 := make([][]bool, n)
	for u := 0; u < n; u++ {
		d1[u] = make([]bool, nv)
		d2[u] = make([]bool, nv)
	}
	return d1, d2
}

func (ix *Index) rebuild() {
	ix.d1, ix.d2 = ix.computeFresh()
}

// computeFresh computes both DPs from scratch in topological order.
func (ix *Index) computeFresh() (d1, d2 [][]bool) {
	d1, d2 = ix.alloc()
	nv := ix.g.NumVertices()
	topo := ix.sk.TopoOrd
	for _, u := range topo {
		for v := 0; v < nv; v++ {
			d1[u][v] = ix.computeCell(u, graph.VertexID(v), d1, ix.sk.Parents[u])
		}
	}
	for i := len(topo) - 1; i >= 0; i-- {
		u := topo[i]
		for v := 0; v < nv; v++ {
			d2[u][v] = ix.computeCell(u, graph.VertexID(v), d2, ix.sk.Children[u])
		}
	}
	return d1, d2
}

// static is the label/degree candidacy test.
func (ix *Index) static(u query.VertexID, v graph.VertexID) bool {
	return ix.g.Alive(v) && ix.g.Label(v) == ix.q.Label(u) && ix.g.Degree(v) >= ix.q.Degree(u)
}

// computeCell evaluates one DP cell from the definition, over the given
// dependency table (d1 with parents, or d2 with children).
func (ix *Index) computeCell(u query.VertexID, v graph.VertexID, tab [][]bool, deps []query.Neighbor) bool {
	if !ix.static(u, v) {
		return false
	}
	for _, dep := range deps {
		// A supporting entry tab[dep.ID][w] can only hold when w carries
		// dep's query label (static is a conjunct of every DP cell), so the
		// scan is confined to that label run of v's adjacency.
		found := false
		for _, nb := range ix.g.NeighborsWithLabel(v, ix.q.Label(dep.ID)) {
			if !ix.ignoreELabels && nb.ELabel != dep.ELabel {
				continue
			}
			if tab[dep.ID][nb.ID] {
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

// Candidate reports whether v is a full candidate of u (D1 and D2).
func (ix *Index) Candidate(u query.VertexID, v graph.VertexID) bool {
	if int(v) >= len(ix.d1[u]) {
		return false
	}
	return ix.d1[u][v] && ix.d2[u][v]
}

// inD1 reports the top-down entry (TurboFlux's IMPLICIT state).
func (ix *Index) inD1(u query.VertexID, v graph.VertexID) bool {
	return int(v) < len(ix.d1[u]) && ix.d1[u][v]
}

// inD2 reports the bottom-up entry.
func (ix *Index) inD2(u query.VertexID, v graph.VertexID) bool {
	return int(v) < len(ix.d2[u]) && ix.d2[u][v]
}

// cell identifies one DP entry in the worklist.
type cell struct {
	u     query.VertexID
	v     graph.VertexID
	which uint8 // 1 = d1, 2 = d2
}

// ApplyUpdate incrementally maintains the index after upd has been applied
// to the graph.
func (ix *Index) ApplyUpdate(upd stream.Update) {
	switch upd.Op {
	case stream.AddVertex:
		// Grow the per-vertex columns; a fresh isolated vertex is never a
		// candidate (query min degree >= 1), so all-false is correct.
		for u := range ix.d1 {
			for ix.g.NumVertices() > len(ix.d1[u]) {
				ix.d1[u] = append(ix.d1[u], false)
				ix.d2[u] = append(ix.d2[u], false)
			}
		}
	case stream.DeleteVertex:
		// An isolated vertex has no candidacy; nothing to do.
	case stream.AddEdge, stream.DeleteEdge:
		ix.propagate(upd.U, upd.V)
	}
}

// propagate re-evaluates the DP around endpoints (x, y) to a fixpoint.
func (ix *Index) propagate(x, y graph.VertexID) {
	n := ix.q.NumVertices()
	var queue []cell
	inQueue := make(map[cell]bool)
	push := func(c cell) {
		if !inQueue[c] {
			inQueue[c] = true
			queue = append(queue, c)
		}
	}
	for u := 0; u < n; u++ {
		qu := query.VertexID(u)
		push(cell{qu, x, 1})
		push(cell{qu, x, 2})
		push(cell{qu, y, 1})
		push(cell{qu, y, 2})
	}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		inQueue[c] = false
		var tab [][]bool
		var deps []query.Neighbor
		if c.which == 1 {
			tab, deps = ix.d1, ix.sk.Parents[c.u]
		} else {
			tab, deps = ix.d2, ix.sk.Children[c.u]
		}
		if int(c.v) >= len(tab[c.u]) {
			continue
		}
		nv := ix.computeCell(c.u, c.v, tab, deps)
		if nv == tab[c.u][c.v] {
			continue
		}
		tab[c.u][c.v] = nv
		// A changed D1[u][v] can affect D1 of u's skeleton children at
		// v's graph neighbors; symmetrically for D2 and parents.
		var affected []query.Neighbor
		if c.which == 1 {
			affected = ix.sk.Children[c.u]
		} else {
			affected = ix.sk.Parents[c.u]
		}
		for _, dep := range affected {
			// Cells (dep.ID, w) where w's label differs from dep's query
			// label are identically false (static fails) and can never
			// change, so only v's matching label run needs re-evaluation.
			for _, nb := range ix.g.NeighborsWithLabel(c.v, ix.q.Label(dep.ID)) {
				push(cell{dep.ID, nb.ID, c.which})
			}
		}
	}
}

// WouldAffect conservatively reports whether applying upd would change any
// DP entry or could contribute to a match — ParaCOSM's stage-3 candidate
// filter for DP-indexed algorithms. Called before the update is applied;
// it never mutates the index.
//
// Soundness argument: a first-order change from inserting/deleting edge
// (x,y) requires either (a) a static degree flip at x or y, or (b) a
// skeleton edge a->b whose labels match the data edge such that the
// supporting endpoint already holds the corresponding DP entry. If neither
// fires, no entry changes and no match can map a query edge onto (x,y)
// (full candidacy of both endpoints would be required).
func (ix *Index) WouldAffect(upd stream.Update) bool {
	switch upd.Op {
	case stream.AddVertex, stream.DeleteVertex:
		return false
	}
	x, y := upd.U, upd.V
	if ix.degreeFlip(x, upd.Op) || ix.degreeFlip(y, upd.Op) {
		return true
	}
	el := upd.ELabel
	if upd.Op == stream.DeleteEdge {
		if l, ok := ix.g.EdgeLabel(x, y); ok {
			el = l
		}
	}
	lx, ly := ix.g.Label(x), ix.g.Label(y)
	n := ix.q.NumVertices()
	for a := 0; a < n; a++ {
		qa := query.VertexID(a)
		for _, ch := range ix.sk.Children[qa] {
			if !ix.ignoreELabels && ch.ELabel != el {
				continue
			}
			qb := ch.ID
			la, lb := ix.q.Label(qa), ix.q.Label(qb)
			// Orientation x->a, y->b.
			if la == lx && lb == ly {
				if ix.inD1(qa, x) || ix.inD2(qb, y) {
					return true
				}
			}
			// Orientation y->a, x->b.
			if la == ly && lb == lx {
				if ix.inD1(qa, y) || ix.inD2(qb, x) {
					return true
				}
			}
		}
	}
	// The skeleton loop covers DP changes, but a match may also map a
	// non-skeleton query edge onto (x,y) (TurboFlux's tree skeleton does
	// not include non-tree edges). Since no DP entry changes at this
	// point, such a match requires both endpoints to already hold full
	// candidacy.
	for _, eo := range ix.q.MatchingEdges(lx, ly, el, ix.ignoreELabels) {
		e := ix.q.Edges()[eo.Index]
		a, b := e.U, e.V
		if eo.Flipped {
			a, b = b, a
		}
		if ix.Candidate(a, x) && ix.Candidate(b, y) {
			return true
		}
	}
	return false
}

// degreeFlip reports whether the degree change at w can flip a static
// candidacy test for some query vertex with w's label.
func (ix *Index) degreeFlip(w graph.VertexID, op stream.Op) bool {
	lw := ix.g.Label(w)
	dw := ix.g.Degree(w)
	n := ix.q.NumVertices()
	for u := 0; u < n; u++ {
		qu := query.VertexID(u)
		if ix.q.Label(qu) != lw {
			continue
		}
		dq := ix.q.Degree(qu)
		if op == stream.AddEdge && dq == dw+1 {
			return true // static flips false -> true
		}
		if op == stream.DeleteEdge && dq == dw {
			return true // static flips true -> false
		}
	}
	return false
}

// ConsistentWithRebuild recomputes both DPs from scratch and compares them
// with the incrementally maintained state (csm.Rebuilder support).
func (ix *Index) ConsistentWithRebuild() bool {
	f1, f2 := ix.computeFresh()
	nv := ix.g.NumVertices()
	for u := range f1 {
		for v := 0; v < nv; v++ {
			iv1, iv2 := false, false
			if v < len(ix.d1[u]) {
				iv1, iv2 = ix.d1[u][v], ix.d2[u][v]
			}
			if f1[u][v] != iv1 || f2[u][v] != iv2 {
				return false
			}
		}
	}
	return true
}

// candidateCount returns the number of full candidates of u (diagnostics).
func (ix *Index) candidateCount(u query.VertexID) int {
	c := 0
	for v := range ix.d1[u] {
		if ix.d1[u][v] && ix.d2[u][v] {
			c++
		}
	}
	return c
}
