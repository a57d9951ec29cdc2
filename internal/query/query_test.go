package query

import (
	"math/rand"
	"testing"
	"testing/quick"

	"paracosm/internal/graph"
)

// triangleWithTail builds the 4-vertex query 0-1, 1-2, 2-0, 2-3.
func triangleWithTail(t *testing.T) *Graph {
	t.Helper()
	q := MustNew([]graph.Label{0, 1, 2, 1})
	q.MustAddEdge(0, 1, 0)
	q.MustAddEdge(1, 2, 0)
	q.MustAddEdge(2, 0, 0)
	q.MustAddEdge(2, 3, 0)
	if err := q.Finalize(); err != nil {
		t.Fatal(err)
	}
	return q
}

func TestNewRejectsBadSizes(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("empty query accepted")
	}
	if _, err := New(make([]graph.Label, MaxVertices+1)); err == nil {
		t.Fatal("oversized query accepted")
	}
}

func TestAddEdgeValidation(t *testing.T) {
	q := MustNew([]graph.Label{0, 1})
	if err := q.AddEdge(0, 0, 0); err == nil {
		t.Fatal("self loop accepted")
	}
	if err := q.AddEdge(0, 5, 0); err == nil {
		t.Fatal("unknown endpoint accepted")
	}
	if err := q.AddEdge(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := q.AddEdge(1, 0, 0); err == nil {
		t.Fatal("duplicate edge accepted")
	}
}

func TestFinalizeRejectsDisconnected(t *testing.T) {
	q := MustNew([]graph.Label{0, 1, 2})
	q.MustAddEdge(0, 1, 0)
	if err := q.Finalize(); err == nil {
		t.Fatal("disconnected query accepted")
	}
}

func TestBasicAccessors(t *testing.T) {
	q := triangleWithTail(t)
	if q.NumVertices() != 4 || q.NumEdges() != 4 {
		t.Fatalf("size = (%d,%d), want (4,4)", q.NumVertices(), q.NumEdges())
	}
	if q.Degree(2) != 3 {
		t.Fatalf("Degree(2) = %d, want 3", q.Degree(2))
	}
	if !q.HasEdge(3, 2) || q.HasEdge(3, 0) {
		t.Fatal("HasEdge wrong")
	}
	if l, ok := q.EdgeLabel(0, 2); !ok || l != 0 {
		t.Fatalf("EdgeLabel(0,2) = %d,%v", l, ok)
	}
	if q.EdgeIndex(2, 0) < 0 || q.EdgeIndex(0, 3) >= 0 {
		t.Fatal("EdgeIndex wrong")
	}
}

func TestMatchingEdges(t *testing.T) {
	q := triangleWithTail(t)
	// Data edge with labels (1,2): matches query edges (1,2) and (3,2).
	eos := q.MatchingEdges(1, 2, 0, false)
	if len(eos) != 2 {
		t.Fatalf("MatchingEdges(1,2) returned %d orientations, want 2", len(eos))
	}
	// Data edge with labels (2,1): edge (1,2) matches flipped, edge (2,3)
	// has labels (2,1) so it matches unflipped.
	rev := q.MatchingEdges(2, 1, 0, false)
	if len(rev) != 2 {
		t.Fatalf("MatchingEdges(2,1) returned %d orientations, want 2", len(rev))
	}
	nFlipped := 0
	for _, eo := range rev {
		if eo.Flipped {
			nFlipped++
		}
	}
	if nFlipped != 1 {
		t.Fatalf("MatchingEdges(2,1): %d flipped orientations, want 1", nFlipped)
	}
	// No query edge has labels (0,0).
	if got := q.MatchingEdges(0, 0, 0, false); len(got) != 0 {
		t.Fatalf("MatchingEdges(0,0) = %v, want empty", got)
	}
}

func TestMatchingEdgesEqualLabelsBothOrientations(t *testing.T) {
	q := MustNew([]graph.Label{5, 5})
	q.MustAddEdge(0, 1, 3)
	if err := q.Finalize(); err != nil {
		t.Fatal(err)
	}
	eos := q.MatchingEdges(5, 5, 3, false)
	if len(eos) != 2 {
		t.Fatalf("equal-label edge should yield 2 orientations, got %d", len(eos))
	}
	if eos[0].Flipped == eos[1].Flipped {
		t.Fatal("orientations should differ in Flipped")
	}
}

func TestMatchingEdgesRespectsEdgeLabels(t *testing.T) {
	q := MustNew([]graph.Label{0, 1})
	q.MustAddEdge(0, 1, 7)
	if err := q.Finalize(); err != nil {
		t.Fatal(err)
	}
	if got := q.MatchingEdges(0, 1, 3, false); len(got) != 0 {
		t.Fatal("edge label mismatch not filtered")
	}
	if got := q.MatchingEdges(0, 1, 3, true); len(got) != 1 {
		t.Fatal("ignoreELabel did not bypass edge label filter")
	}
}

// matchingEdgesByScan is the definition MatchingEdges' table must agree
// with: a scan of the edge list.
func matchingEdgesByScan(q *Graph, lu, lv, le graph.Label, ignoreELabel bool) []EdgeOrientation {
	var out []EdgeOrientation
	for i, e := range q.Edges() {
		if !ignoreELabel && e.ELabel != le {
			continue
		}
		if q.Label(e.U) == lu && q.Label(e.V) == lv {
			out = append(out, EdgeOrientation{Index: i})
		}
		if q.Label(e.U) == lv && q.Label(e.V) == lu {
			out = append(out, EdgeOrientation{Index: i, Flipped: true})
		}
	}
	return out
}

// TestMatchingEdgesTable: the table Finalize builds answers every
// (lu, lv, le) exactly as a scan of the edge list would, in the same order,
// without allocating; EdgeLabelPairs lists exactly the unordered pairs with
// a non-empty answer.
func TestMatchingEdgesTable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(6)
		labels := make([]graph.Label, n)
		for i := range labels {
			labels[i] = graph.Label(rng.Intn(3))
		}
		q := MustNew(labels)
		for v := 1; v < n; v++ {
			q.MustAddEdge(VertexID(rng.Intn(v)), VertexID(v), graph.Label(rng.Intn(2)))
		}
		for extra := 0; extra < n; extra++ {
			if u, v := VertexID(rng.Intn(n)), VertexID(rng.Intn(n)); u != v && !q.HasEdge(u, v) {
				q.MustAddEdge(u, v, graph.Label(rng.Intn(2)))
			}
		}
		if err := q.Finalize(); err != nil {
			t.Fatal(err)
		}
		pairs := map[[2]graph.Label]bool{}
		for _, p := range q.EdgeLabelPairs() {
			if p[0] > p[1] || pairs[p] {
				t.Fatalf("EdgeLabelPairs = %v: unordered or repeated", q.EdgeLabelPairs())
			}
			pairs[p] = true
		}
		for lu := graph.Label(0); lu < 4; lu++ {
			for lv := graph.Label(0); lv < 4; lv++ {
				for le := graph.Label(0); le < 3; le++ {
					for _, ignore := range []bool{false, true} {
						got := q.MatchingEdges(lu, lv, le, ignore)
						want := matchingEdgesByScan(q, lu, lv, le, ignore)
						if len(got) != len(want) {
							t.Fatalf("MatchingEdges(%d,%d,%d,%v) = %v, scan %v", lu, lv, le, ignore, got, want)
						}
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("MatchingEdges(%d,%d,%d,%v) = %v, scan %v", lu, lv, le, ignore, got, want)
							}
						}
					}
				}
				lo, hi := lu, lv
				if lo > hi {
					lo, hi = hi, lo
				}
				if any := len(q.MatchingEdges(lu, lv, 0, true)) > 0; any != pairs[[2]graph.Label{lo, hi}] {
					t.Fatalf("pair (%d,%d): matches %v, listed %v", lu, lv, any, pairs[[2]graph.Label{lo, hi}])
				}
			}
		}
		if a := testing.AllocsPerRun(20, func() { q.MatchingEdges(labels[0], labels[1], 0, false) }); a != 0 {
			t.Fatalf("MatchingEdges allocates %.1f per call", a)
		}
	}
}

func TestOrdersAreConnectedPermutations(t *testing.T) {
	q := triangleWithTail(t)
	for i, e := range q.Edges() {
		for _, flip := range []bool{false, true} {
			ord := q.Order(EdgeOrientation{Index: i, Flipped: flip})
			if len(ord) != q.NumVertices() {
				t.Fatalf("edge %d: order length %d", i, len(ord))
			}
			seen := map[VertexID]bool{}
			for _, v := range ord {
				if seen[v] {
					t.Fatalf("edge %d: duplicate vertex %d in order", i, v)
				}
				seen[v] = true
			}
			a, b := ord[0], ord[1]
			if flip {
				a, b = b, a
			}
			if a != e.U || b != e.V {
				t.Fatalf("edge %d flip=%v: order starts %v, want (%d,%d)", i, flip, ord[:2], e.U, e.V)
			}
			// Connectivity: each vertex after position 0 has an earlier neighbor.
			for pos := 1; pos < len(ord); pos++ {
				ok := false
				for _, nb := range q.Neighbors(ord[pos]) {
					for p := 0; p < pos; p++ {
						if ord[p] == nb.ID {
							ok = true
						}
					}
				}
				if !ok {
					t.Fatalf("edge %d: order %v not connected at pos %d", i, ord, pos)
				}
			}
		}
	}
}

func TestBackwardNeighbors(t *testing.T) {
	q := triangleWithTail(t)
	ord := []VertexID{0, 1, 2, 3}
	back := q.BackwardNeighbors(ord)
	if len(back[0]) != 0 {
		t.Fatalf("position 0 has backward neighbors %v", back[0])
	}
	if len(back[1]) != 1 || back[1][0].Pos != 0 {
		t.Fatalf("back[1] = %v, want [{0 0}]", back[1])
	}
	if len(back[2]) != 2 {
		t.Fatalf("back[2] = %v, want two entries", back[2])
	}
	if len(back[3]) != 1 || back[3][0].Pos != 2 {
		t.Fatalf("back[3] = %v, want [{2 0}]", back[3])
	}
}

func TestSpanningTree(t *testing.T) {
	q := triangleWithTail(t)
	tr := q.BuildSpanningTree()
	if tr.Root != 2 {
		t.Fatalf("root = %d, want 2 (max degree)", tr.Root)
	}
	if tr.Parent[tr.Root] != tr.Root {
		t.Fatal("root parent must be itself")
	}
	// Tree has n-1 edges; 4 query edges => 1 non-tree edge.
	if len(tr.NonTree) != 1 {
		t.Fatalf("non-tree edges = %v, want 1", tr.NonTree)
	}
	if len(tr.BFSOrder) != q.NumVertices() {
		t.Fatalf("BFSOrder length %d", len(tr.BFSOrder))
	}
	// Every non-root vertex's parent appears earlier in BFS order.
	pos := map[VertexID]int{}
	for i, v := range tr.BFSOrder {
		pos[v] = i
	}
	for v := 0; v < q.NumVertices(); v++ {
		if VertexID(v) == tr.Root {
			continue
		}
		if pos[tr.Parent[v]] >= pos[VertexID(v)] {
			t.Fatalf("parent of %d not before it in BFS order", v)
		}
	}
}

func TestDAG(t *testing.T) {
	q := triangleWithTail(t)
	d := q.BuildDAG()
	// Every query edge appears exactly once as a directed edge.
	total := 0
	for v := 0; v < q.NumVertices(); v++ {
		total += len(d.Children[v])
	}
	if total != q.NumEdges() {
		t.Fatalf("directed edges = %d, want %d", total, q.NumEdges())
	}
	// Parents/Children are mirror images.
	for v := 0; v < q.NumVertices(); v++ {
		for _, c := range d.Children[v] {
			found := false
			for _, p := range d.Parents[c.ID] {
				if p.ID == VertexID(v) && p.ELabel == c.ELabel {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge %d->%d missing from Parents", v, c.ID)
			}
		}
	}
	// TopoOrd respects edge direction.
	pos := map[VertexID]int{}
	for i, v := range d.TopoOrd {
		pos[v] = i
	}
	for v := 0; v < q.NumVertices(); v++ {
		for _, c := range d.Children[v] {
			if pos[VertexID(v)] >= pos[c.ID] {
				t.Fatalf("topo order violates edge %d->%d", v, c.ID)
			}
		}
	}
	if d.TopoOrd[0] != d.Root {
		t.Fatalf("topo order does not start at root")
	}
}

func TestVertexCover(t *testing.T) {
	q := triangleWithTail(t)
	kernel, shell := q.VertexCover()
	if len(kernel)+len(shell) != q.NumVertices() {
		t.Fatal("kernel/shell not a partition")
	}
	inKernel := map[VertexID]bool{}
	for _, v := range kernel {
		inKernel[v] = true
	}
	// Cover: every edge has a kernel endpoint.
	for _, e := range q.Edges() {
		if !inKernel[e.U] && !inKernel[e.V] {
			t.Fatalf("edge (%d,%d) uncovered", e.U, e.V)
		}
	}
	// Shell is an independent set.
	for _, a := range shell {
		for _, b := range shell {
			if a != b && q.HasEdge(a, b) {
				t.Fatalf("shell vertices %d,%d adjacent", a, b)
			}
		}
	}
}

// randomConnectedQuery builds a random connected query of size n.
func randomConnectedQuery(rng *rand.Rand, n int) *Graph {
	labels := make([]graph.Label, n)
	for i := range labels {
		labels[i] = graph.Label(rng.Intn(3))
	}
	q := MustNew(labels)
	// Random spanning tree, then random extra edges.
	for v := 1; v < n; v++ {
		q.MustAddEdge(VertexID(rng.Intn(v)), VertexID(v), graph.Label(rng.Intn(2)))
	}
	extra := rng.Intn(n)
	for i := 0; i < extra; i++ {
		u, v := VertexID(rng.Intn(n)), VertexID(rng.Intn(n))
		if u != v && !q.HasEdge(u, v) {
			q.MustAddEdge(u, v, graph.Label(rng.Intn(2)))
		}
	}
	if err := q.Finalize(); err != nil {
		panic(err)
	}
	return q
}

// Property: on random connected queries, structural invariants hold for
// spanning tree, DAG and vertex cover.
func TestStructuresOnRandomQueries(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(MaxVertices-3)
		q := randomConnectedQuery(rng, n)

		tr := q.BuildSpanningTree()
		treeEdges := 0
		for v := range tr.Children {
			treeEdges += len(tr.Children[v])
		}
		if treeEdges != n-1 || treeEdges+len(tr.NonTree) != q.NumEdges() {
			return false
		}

		d := q.BuildDAG()
		total := 0
		for v := 0; v < n; v++ {
			total += len(d.Children[v])
		}
		if total != q.NumEdges() {
			return false
		}

		kernel, shell := q.VertexCover()
		inK := make([]bool, n)
		for _, v := range kernel {
			inK[v] = true
		}
		for _, e := range q.Edges() {
			if !inK[e.U] && !inK[e.V] {
				return false
			}
		}
		_ = shell
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
