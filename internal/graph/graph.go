// Package graph implements the dynamic labeled undirected graph used as the
// data graph G in continuous subgraph matching (Definition 2.1 of the
// ParaCOSM paper). Vertices and edges both carry labels.
//
// Adjacency layout: each vertex's adjacency list is kept sorted by
// (neighbor-vertex-label, neighbor ID) and partitioned by a compact
// per-vertex offset table (segs), so the neighbors of v carrying a given
// vertex label form one contiguous run. NeighborsWithLabel returns that run
// as a zero-allocation sub-slice — the primitive every CSM inner loop in
// this repository is built on — while membership tests, insertions and
// deletions stay O(log d) + O(d) memmove. Vertex labels are immutable after
// AddVertex, so the partition key of an adjacency entry never changes.
// See DESIGN.md §11 for the layout, aliasing rules and kernel heuristics.
//
// Concurrency contract: a Graph is safe for concurrent readers, and has one
// writer at a time, with no reader in flight — the caller serializes. That
// is exactly how ParaCOSM uses it: each driver applies one update at a time
// (a standalone Engine on its own goroutine; MultiEngine's lockstep loop
// under its mutex, between two read-only fan-out phases), so the graph needs
// no locks of its own.
package graph

import "fmt"

// VertexID identifies a data-graph vertex.
type VertexID uint32

// NoVertex is the sentinel for "no vertex" in partial embeddings.
const NoVertex = ^VertexID(0)

// Label is a vertex or edge label drawn from the finite alphabets
// Sigma_V / Sigma_E of the labeled graph.
type Label uint32

// NoLabel marks the absence of an edge label (datasets with |L(E)| = 1 use
// label 0 for every edge; NoLabel is only used as a lookup-miss sentinel).
const NoLabel = ^Label(0)

// Neighbor is one adjacency entry: the neighbor vertex and the label of the
// connecting edge.
type Neighbor struct {
	ID     VertexID
	ELabel Label
}

// labelSeg is one entry of a vertex's label offset table: the run of
// adjacency entries whose neighbor carries `label` starts at index `start`
// and extends to the next segment's start (or the end of the list). The
// table is sorted by label and contains no empty runs.
type labelSeg struct {
	label Label
	start uint32
}

// Graph is a dynamic labeled undirected graph.
type Graph struct {
	labels  []Label      // vertex labels, indexed by VertexID (immutable once assigned)
	adj     [][]Neighbor // adjacency lists sorted by (neighbor label, neighbor ID)
	segs    [][]labelSeg // per-vertex label offset tables, parallel to adj
	alive   []bool       // false once a vertex has been deleted
	byLabel map[Label][]VertexID
	edges   int // current number of edges
}

// New returns an empty graph with capacity hints for n vertices.
func New(n int) *Graph {
	return &Graph{
		labels:  make([]Label, 0, n),
		adj:     make([][]Neighbor, 0, n),
		segs:    make([][]labelSeg, 0, n),
		alive:   make([]bool, 0, n),
		byLabel: make(map[Label][]VertexID),
	}
}

// AddVertex appends a vertex with the given label and returns its ID.
func (g *Graph) AddVertex(l Label) VertexID {
	id := VertexID(len(g.labels))
	g.labels = append(g.labels, l)
	g.adj = append(g.adj, nil)
	g.segs = append(g.segs, nil)
	g.alive = append(g.alive, true)
	g.byLabel[l] = append(g.byLabel[l], id)
	return id
}

// DeleteVertex removes an isolated vertex. It panics if the vertex still has
// incident edges (the CSM update model only deletes isolated vertices; edge
// deletions must come first). The label-index entry is swap-removed, so
// VerticesWithLabel makes no ordering promise.
func (g *Graph) DeleteVertex(v VertexID) {
	if len(g.adj[v]) != 0 {
		//lint:ignore noalloc contract-violation panic: formatting happens once, on the way down
		panic(fmt.Sprintf("graph: DeleteVertex(%d): vertex not isolated (degree %d)", v, len(g.adj[v])))
	}
	g.alive[v] = false
	l := g.labels[v]
	s := g.byLabel[l]
	for i, id := range s {
		if id == v {
			s[i] = s[len(s)-1]
			g.byLabel[l] = s[:len(s)-1]
			break
		}
	}
}

// Alive reports whether v exists and has not been deleted.
func (g *Graph) Alive(v VertexID) bool {
	return int(v) < len(g.alive) && g.alive[v]
}

// NumVertices returns the number of vertex slots ever allocated (including
// deleted ones); use Alive to test liveness.
func (g *Graph) NumVertices() int { return len(g.labels) }

// NumEdges returns the current number of edges.
func (g *Graph) NumEdges() int { return g.edges }

// Label returns the label of vertex v.
func (g *Graph) Label(v VertexID) Label { return g.labels[v] }

// Degree returns the current degree of v.
func (g *Graph) Degree(v VertexID) int { return len(g.adj[v]) }

// Neighbors returns the adjacency list of v, sorted by (neighbor label,
// neighbor ID). The returned slice aliases internal storage and must not be
// modified; it is invalidated by the next mutation of v's adjacency.
func (g *Graph) Neighbors(v VertexID) []Neighbor { return g.adj[v] }

// NeighborsWithLabel returns the neighbors of v whose vertex label is l, as
// a sub-slice of v's adjacency list sorted by neighbor ID. The lookup is a
// binary search over v's label offset table (O(log of distinct neighbor
// labels)) and the result is a zero-allocation view: it aliases internal
// storage, must not be modified, and is invalidated by the next mutation of
// v's adjacency (same rules as Neighbors).
//
//paracosm:noalloc
func (g *Graph) NeighborsWithLabel(v VertexID, l Label) []Neighbor {
	lo, hi := g.labelRun(v, l)
	return g.adj[v][lo:hi]
}

// DegreeWithLabel returns the number of neighbors of v carrying vertex
// label l, without materializing the slice.
//
//paracosm:noalloc
func (g *Graph) DegreeWithLabel(v VertexID, l Label) int {
	lo, hi := g.labelRun(v, l)
	return hi - lo
}

// labelRun returns the [lo, hi) bounds of v's adjacency run whose neighbors
// carry vertex label l; lo == hi when v has no such neighbor.
func (g *Graph) labelRun(v VertexID, l Label) (lo, hi int) {
	segs := g.segs[v]
	si := searchSegs(segs, l)
	if si == len(segs) || segs[si].label != l {
		return 0, 0
	}
	lo = int(segs[si].start)
	if si+1 < len(segs) {
		hi = int(segs[si+1].start)
	} else {
		hi = len(g.adj[v])
	}
	return lo, hi
}

// searchSegs returns the smallest index i with segs[i].label >= l.
func searchSegs(segs []labelSeg, l Label) int {
	lo, hi := 0, len(segs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if segs[mid].label < l {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// VerticesWithLabel returns all live vertices carrying label l, in no
// particular order. The slice aliases internal storage and must not be
// modified.
func (g *Graph) VerticesWithLabel(l Label) []VertexID { return g.byLabel[l] }

// findNeighbor returns the index of u in v's adjacency list, or -1. The
// search is confined to the run carrying u's label.
func (g *Graph) findNeighbor(v, u VertexID) int {
	lo, hi := g.labelRun(v, g.labels[u])
	a := g.adj[v]
	i := lo + searchNeighbors(a[lo:hi], u)
	if i < hi && a[i].ID == u {
		return i
	}
	return -1
}

// HasEdge reports whether the edge (u,v) exists.
func (g *Graph) HasEdge(u, v VertexID) bool {
	// Search from the lower-degree endpoint.
	if len(g.adj[u]) > len(g.adj[v]) {
		u, v = v, u
	}
	return g.findNeighbor(u, v) >= 0
}

// EdgeLabel returns the label of edge (u,v) and whether the edge exists.
func (g *Graph) EdgeLabel(u, v VertexID) (Label, bool) {
	if len(g.adj[u]) > len(g.adj[v]) {
		u, v = v, u
	}
	if i := g.findNeighbor(u, v); i >= 0 {
		return g.adj[u][i].ELabel, true
	}
	return NoLabel, false
}

// AddEdge inserts the undirected edge (u,v) with label l. It reports whether
// the edge was newly inserted (false if it already existed).
func (g *Graph) AddEdge(u, v VertexID, l Label) bool {
	if u == v {
		return false // no self loops in the CSM model
	}
	if !g.insertHalf(u, v, l) {
		return false
	}
	g.insertHalf(v, u, l)
	g.edges++
	return true
}

// RemoveEdge deletes the undirected edge (u,v). It reports whether the edge
// existed.
func (g *Graph) RemoveEdge(u, v VertexID) bool {
	if !g.removeHalf(u, v) {
		return false
	}
	g.removeHalf(v, u)
	g.edges--
	return true
}

// insertHalf inserts u into v's adjacency at its (label, ID) position and
// maintains the label offset table: a new segment is created when u's label
// is not yet present among v's neighbors, and every later segment shifts
// right by one.
func (g *Graph) insertHalf(v, u VertexID, l Label) bool {
	lu := g.labels[u]
	a := g.adj[v]
	segs := g.segs[v]
	si := searchSegs(segs, lu)
	var lo, hi int
	havSeg := si < len(segs) && segs[si].label == lu
	if havSeg {
		lo = int(segs[si].start)
		if si+1 < len(segs) {
			hi = int(segs[si+1].start)
		} else {
			hi = len(a)
		}
	} else if si < len(segs) {
		lo, hi = int(segs[si].start), int(segs[si].start)
	} else {
		lo, hi = len(a), len(a)
	}
	i := lo + searchNeighbors(a[lo:hi], u)
	if i < hi && a[i].ID == u {
		return false
	}
	a = append(a, Neighbor{})
	copy(a[i+1:], a[i:])
	a[i] = Neighbor{ID: u, ELabel: l}
	g.adj[v] = a
	if !havSeg {
		segs = append(segs, labelSeg{})
		copy(segs[si+1:], segs[si:])
		segs[si] = labelSeg{label: lu, start: uint32(i)}
		g.segs[v] = segs
	}
	for j := si + 1; j < len(segs); j++ {
		segs[j].start++
	}
	return true
}

// removeHalf removes u from v's adjacency and maintains the label offset
// table, dropping the segment when its run empties.
func (g *Graph) removeHalf(v, u VertexID) bool {
	i := g.findNeighbor(v, u)
	if i < 0 {
		return false
	}
	a := g.adj[v]
	g.adj[v] = append(a[:i], a[i+1:]...)
	segs := g.segs[v]
	lu := g.labels[u]
	si := searchSegs(segs, lu)
	lo := int(segs[si].start)
	hi := len(a)
	if si+1 < len(segs) {
		hi = int(segs[si+1].start)
	}
	if hi-lo == 1 {
		// The run emptied: drop its segment.
		segs = append(segs[:si], segs[si+1:]...)
		g.segs[v] = segs
	} else {
		si++
	}
	for j := si; j < len(segs); j++ {
		segs[j].start--
	}
	return true
}

// Clone returns a deep copy of the graph (used by the reference matcher to
// snapshot state around an update).
func (g *Graph) Clone() *Graph {
	c := &Graph{
		labels:  append([]Label(nil), g.labels...),
		adj:     make([][]Neighbor, len(g.adj)),
		segs:    make([][]labelSeg, len(g.segs)),
		alive:   append([]bool(nil), g.alive...),
		edges:   g.edges,
		byLabel: make(map[Label][]VertexID, len(g.byLabel)),
	}
	for i, a := range g.adj {
		c.adj[i] = append([]Neighbor(nil), a...)
	}
	for i, s := range g.segs {
		c.segs[i] = append([]labelSeg(nil), s...)
	}
	for l, s := range g.byLabel {
		c.byLabel[l] = append([]VertexID(nil), s...)
	}
	return c
}
