// Package query implements the query graph Q of the CSM problem together
// with the structural precomputations the baseline algorithms need:
// per-edge matching orders (GraphFlow/NewSP/Symbi-style search), a BFS
// spanning tree (TurboFlux's DCG), a BFS DAG (Symbi's DCS) and a greedy
// vertex cover (CaLiG's kernel set).
//
// Query graphs are small (the paper evaluates 6-10 vertices); MaxVertices
// caps them at 16 so partial embeddings fit in a fixed-size array that can
// be copied cheaply between ParaCOSM worker tasks.
package query

import (
	"fmt"
	"sort"

	"paracosm/internal/graph"
)

// MaxVertices is the largest supported query size. The ParaCOSM evaluation
// uses 6-10 query vertices; 16 leaves headroom for the "large query"
// experiments while keeping search states copyable in a few cache lines.
const MaxVertices = 16

// VertexID identifies a query vertex (0..n-1).
type VertexID = uint8

// Edge is an undirected, labeled query edge with U < V.
type Edge struct {
	U, V   VertexID
	ELabel graph.Label
}

// Graph is a connected, labeled query graph.
type Graph struct {
	labels []graph.Label
	adj    [][]Neighbor // sorted by neighbor id
	edges  []Edge       // canonical U<V order, sorted

	// orders[e][k] is the matching order used when the updated data edge is
	// mapped onto query edge edges[e]; see BuildOrders.
	orders [][]VertexID

	// match is the label-filter table behind MatchingEdges, built once by
	// Finalize: one row per ordered endpoint-label pair some query edge
	// carries. Queries have a handful of distinct pairs, so a row is found
	// by linear scan.
	match []matchRow
}

// matchRow lists the query-edge orientations a data edge with ordered
// endpoint labels (lu, lv) maps onto, in edge-index order: all of them in
// any, and the same split by edge label in byEL.
type matchRow struct {
	lu, lv graph.Label
	any    []EdgeOrientation
	byEL   []matchELRow
}

type matchELRow struct {
	le  graph.Label
	eos []EdgeOrientation
}

// Neighbor is one query adjacency entry.
type Neighbor struct {
	ID     VertexID
	ELabel graph.Label
}

// New creates a query graph with the given vertex labels. Edges are added
// with AddEdge; Finalize must be called before the graph is used.
func New(labels []graph.Label) (*Graph, error) {
	if len(labels) == 0 {
		return nil, fmt.Errorf("query: empty query graph")
	}
	if len(labels) > MaxVertices {
		return nil, fmt.Errorf("query: %d vertices exceeds MaxVertices=%d", len(labels), MaxVertices)
	}
	return &Graph{
		labels: append([]graph.Label(nil), labels...),
		adj:    make([][]Neighbor, len(labels)),
	}, nil
}

// MustNew is New for tests and examples with known-good input.
func MustNew(labels []graph.Label) *Graph {
	q, err := New(labels)
	if err != nil {
		panic(err)
	}
	return q
}

// AddEdge inserts the undirected edge (u,v) with label l.
func (q *Graph) AddEdge(u, v VertexID, l graph.Label) error {
	if int(u) >= len(q.labels) || int(v) >= len(q.labels) {
		return fmt.Errorf("query: edge (%d,%d) references unknown vertex", u, v)
	}
	if u == v {
		return fmt.Errorf("query: self loop on %d", u)
	}
	if q.hasEdge(u, v) {
		return fmt.Errorf("query: duplicate edge (%d,%d)", u, v)
	}
	if u > v {
		u, v = v, u
	}
	q.edges = append(q.edges, Edge{U: u, V: v, ELabel: l})
	q.adj[u] = append(q.adj[u], Neighbor{ID: v, ELabel: l})
	q.adj[v] = append(q.adj[v], Neighbor{ID: u, ELabel: l})
	return nil
}

// MustAddEdge is AddEdge that panics on error.
func (q *Graph) MustAddEdge(u, v VertexID, l graph.Label) {
	if err := q.AddEdge(u, v, l); err != nil {
		panic(err)
	}
}

// Finalize validates connectivity, sorts adjacency lists and precomputes
// the per-edge matching orders and the label-filter table behind
// MatchingEdges. It must be called once after all edges are added and
// before the query is used for matching.
func (q *Graph) Finalize() error {
	if len(q.edges) == 0 && len(q.labels) > 1 {
		return fmt.Errorf("query: %d vertices but no edges", len(q.labels))
	}
	for v := range q.adj {
		a := q.adj[v]
		sort.Slice(a, func(i, j int) bool { return a[i].ID < a[j].ID })
	}
	sort.Slice(q.edges, func(i, j int) bool {
		if q.edges[i].U != q.edges[j].U {
			return q.edges[i].U < q.edges[j].U
		}
		return q.edges[i].V < q.edges[j].V
	})
	if !q.connected() {
		return fmt.Errorf("query: graph is not connected")
	}
	q.BuildOrders()
	q.buildMatchTable()
	return nil
}

// buildMatchTable fills q.match from the sorted edge list.
func (q *Graph) buildMatchTable() {
	q.match = nil
	for _, e := range q.edges {
		q.addMatchRow(q.labels[e.U], q.labels[e.V])
		q.addMatchRow(q.labels[e.V], q.labels[e.U])
	}
}

func (q *Graph) addMatchRow(lu, lv graph.Label) {
	for i := range q.match {
		if q.match[i].lu == lu && q.match[i].lv == lv {
			return
		}
	}
	r := matchRow{lu: lu, lv: lv}
	add := func(eo EdgeOrientation) {
		r.any = append(r.any, eo)
		le := q.edges[eo.Index].ELabel
		for i := range r.byEL {
			if r.byEL[i].le == le {
				r.byEL[i].eos = append(r.byEL[i].eos, eo)
				return
			}
		}
		r.byEL = append(r.byEL, matchELRow{le: le, eos: []EdgeOrientation{eo}})
	}
	for i, e := range q.edges {
		if q.labels[e.U] == lu && q.labels[e.V] == lv {
			add(EdgeOrientation{Index: i, Flipped: false})
		}
		// lu == lv: both orientations map the same label pair; the search
		// must try both assignments, so the flipped variant is listed too.
		if q.labels[e.U] == lv && q.labels[e.V] == lu {
			add(EdgeOrientation{Index: i, Flipped: true})
		}
	}
	q.match = append(q.match, r)
}

func (q *Graph) connected() bool {
	n := len(q.labels)
	if n == 1 {
		return true
	}
	seen := make([]bool, n)
	stack := []VertexID{0}
	seen[0] = true
	cnt := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range q.adj[v] {
			if !seen[nb.ID] {
				seen[nb.ID] = true
				cnt++
				stack = append(stack, nb.ID)
			}
		}
	}
	return cnt == n
}

// NumVertices returns |V(Q)|.
func (q *Graph) NumVertices() int { return len(q.labels) }

// NumEdges returns |E(Q)|.
func (q *Graph) NumEdges() int { return len(q.edges) }

// Label returns the label of query vertex u.
func (q *Graph) Label(u VertexID) graph.Label { return q.labels[u] }

// Degree returns the degree of query vertex u.
func (q *Graph) Degree(u VertexID) int { return len(q.adj[u]) }

// Neighbors returns the sorted adjacency of u (do not modify).
func (q *Graph) Neighbors(u VertexID) []Neighbor { return q.adj[u] }

// Edges returns the canonical edge list (do not modify).
func (q *Graph) Edges() []Edge { return q.edges }

// hasEdge reports whether (u,v) is a query edge.
func (q *Graph) hasEdge(u, v VertexID) bool {
	for _, nb := range q.adj[u] {
		if nb.ID == v {
			return true
		}
	}
	return false
}

// EdgeLabel returns the label of query edge (u,v) and whether it exists.
func (q *Graph) EdgeLabel(u, v VertexID) (graph.Label, bool) {
	for _, nb := range q.adj[u] {
		if nb.ID == v {
			return nb.ELabel, true
		}
	}
	return graph.NoLabel, false
}

// MatchingEdges returns the indices of query edges whose endpoint labels
// and edge label are compatible with a data edge carrying (lu, lv, le) --
// the label-filter primitive shared by all algorithms and by ParaCOSM's
// update classifier. Both orientations are considered; each returned
// orientation is (edge index, flipped) where flipped means the data
// endpoint carrying lu maps to edge.V. The result is a row of the table
// Finalize built, in edge-index order: the call allocates nothing and the
// caller must not modify it.
func (q *Graph) MatchingEdges(lu, lv, le graph.Label, ignoreELabel bool) []EdgeOrientation {
	for i := range q.match {
		r := &q.match[i]
		if r.lu != lu || r.lv != lv {
			continue
		}
		if ignoreELabel {
			return r.any
		}
		for j := range r.byEL {
			if r.byEL[j].le == le {
				return r.byEL[j].eos
			}
		}
		return nil
	}
	return nil
}

// EdgeLabelPairs returns the distinct unordered endpoint-label pairs of the
// query's edges, each as [lo, hi] with lo <= hi: the keys under which the
// label filter can pass. A data edge whose endpoint labels form any other
// pair gets an empty MatchingEdges whatever its edge label.
func (q *Graph) EdgeLabelPairs() [][2]graph.Label {
	var out [][2]graph.Label
	for i := range q.match {
		if r := &q.match[i]; r.lu <= r.lv {
			out = append(out, [2]graph.Label{r.lu, r.lv})
		}
	}
	return out
}

// EdgeOrientation identifies a query edge together with the orientation in
// which a data edge is mapped onto it.
type EdgeOrientation struct {
	Index   int  // into Edges()
	Flipped bool // data (u,v) maps to (edge.V, edge.U)
}
