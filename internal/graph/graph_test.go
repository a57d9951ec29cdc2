package graph

import (
	"bytes"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func buildPath(t *testing.T, n int) *Graph {
	t.Helper()
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddVertex(Label(i % 3))
	}
	for i := 0; i+1 < n; i++ {
		if !g.AddEdge(VertexID(i), VertexID(i+1), 0) {
			t.Fatalf("AddEdge(%d,%d) = false", i, i+1)
		}
	}
	return g
}

func TestAddVertexAssignsDenseIDs(t *testing.T) {
	g := New(0)
	for i := 0; i < 10; i++ {
		if id := g.AddVertex(Label(i)); id != VertexID(i) {
			t.Fatalf("AddVertex #%d returned id %d", i, id)
		}
	}
	if g.NumVertices() != 10 {
		t.Fatalf("NumVertices = %d, want 10", g.NumVertices())
	}
}

func TestAddEdgeBasics(t *testing.T) {
	g := buildPath(t, 5)
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Fatal("edge (1,2) missing in one direction")
	}
	if g.HasEdge(0, 4) {
		t.Fatal("phantom edge (0,4)")
	}
	if g.Degree(0) != 1 || g.Degree(2) != 2 {
		t.Fatalf("degrees = %d,%d want 1,2", g.Degree(0), g.Degree(2))
	}
}

func TestAddEdgeRejectsDuplicatesAndLoops(t *testing.T) {
	g := buildPath(t, 3)
	if g.AddEdge(0, 1, 0) {
		t.Fatal("duplicate edge accepted")
	}
	if g.AddEdge(2, 2, 0) {
		t.Fatal("self loop accepted")
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
}

func TestRemoveEdge(t *testing.T) {
	g := buildPath(t, 4)
	if !g.RemoveEdge(1, 2) {
		t.Fatal("RemoveEdge(1,2) = false")
	}
	if g.HasEdge(1, 2) || g.HasEdge(2, 1) {
		t.Fatal("edge survives removal")
	}
	if g.RemoveEdge(1, 2) {
		t.Fatal("second RemoveEdge succeeded")
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
}

func TestEdgeLabel(t *testing.T) {
	g := New(2)
	g.AddVertex(0)
	g.AddVertex(1)
	g.AddEdge(0, 1, 7)
	if l, ok := g.EdgeLabel(1, 0); !ok || l != 7 {
		t.Fatalf("EdgeLabel = %d,%v want 7,true", l, ok)
	}
	if _, ok := g.EdgeLabel(0, 0); ok {
		t.Fatal("EdgeLabel on missing edge reported ok")
	}
}

func TestNeighborsSorted(t *testing.T) {
	// Mixed neighbor labels: adjacency must come back sorted by
	// (neighbor label, neighbor ID).
	g := New(7)
	g.AddVertex(9)
	for i := 1; i < 7; i++ {
		g.AddVertex(Label(i % 3))
	}
	for _, v := range []VertexID{5, 2, 4, 1, 3, 6} {
		g.AddEdge(0, v, 0)
	}
	ns := g.Neighbors(0)
	if len(ns) != 6 {
		t.Fatalf("degree = %d, want 6", len(ns))
	}
	key := func(n Neighbor) uint64 { return uint64(g.Label(n.ID))<<32 | uint64(n.ID) }
	if !sort.SliceIsSorted(ns, func(i, j int) bool { return key(ns[i]) < key(ns[j]) }) {
		t.Fatalf("adjacency not sorted by (label, id): %v", ns)
	}
}

func TestNeighborsWithLabel(t *testing.T) {
	g := New(8)
	g.AddVertex(5)
	for i := 1; i < 8; i++ {
		g.AddVertex(Label(i % 3))
	}
	for _, v := range []VertexID{7, 3, 1, 6, 2, 5, 4} {
		g.AddEdge(0, v, Label(v))
	}
	for l := Label(0); l < 4; l++ {
		var want []Neighbor
		for _, nb := range g.Neighbors(0) {
			if g.Label(nb.ID) == l {
				want = append(want, nb)
			}
		}
		got := g.NeighborsWithLabel(0, l)
		if len(got) != len(want) {
			t.Fatalf("label %d: got %v, want %v", l, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("label %d: got %v, want %v", l, got, want)
			}
		}
		if d := g.DegreeWithLabel(0, l); d != len(want) {
			t.Fatalf("DegreeWithLabel(0,%d) = %d, want %d", l, d, len(want))
		}
	}
	if got := g.NeighborsWithLabel(3, 5); len(got) != 1 || got[0].ID != 0 {
		t.Fatalf("NeighborsWithLabel(3,5) = %v, want [{0 3}]", got)
	}
}

func TestNumLiveAndAvgDegreeAfterDelete(t *testing.T) {
	g := buildPath(t, 4)
	if g.NumLive() != 4 {
		t.Fatalf("NumLive = %d, want 4", g.NumLive())
	}
	g.RemoveEdge(0, 1)
	g.DeleteVertex(0)
	if g.NumLive() != 3 {
		t.Fatalf("NumLive after delete = %d, want 3", g.NumLive())
	}
	// 2 edges over 3 live vertices.
	if got, want := g.AvgDegree(), 4.0/3.0; got != want {
		t.Fatalf("AvgDegree = %v, want %v", got, want)
	}
}

func TestVerticesWithLabel(t *testing.T) {
	g := New(6)
	for i := 0; i < 6; i++ {
		g.AddVertex(Label(i % 2))
	}
	if got := len(g.VerticesWithLabel(0)); got != 3 {
		t.Fatalf("label 0 count = %d, want 3", got)
	}
	if got := len(g.VerticesWithLabel(9)); got != 0 {
		t.Fatalf("label 9 count = %d, want 0", got)
	}
}

func TestDeleteVertex(t *testing.T) {
	g := buildPath(t, 3)
	g.RemoveEdge(0, 1)
	g.DeleteVertex(0)
	if g.Alive(0) {
		t.Fatal("vertex 0 alive after deletion")
	}
	for _, v := range g.VerticesWithLabel(0) {
		if v == 0 {
			t.Fatal("deleted vertex still in label index")
		}
	}
}

func TestDeleteVertexPanicsOnNonIsolated(t *testing.T) {
	g := buildPath(t, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic deleting non-isolated vertex")
		}
	}()
	g.DeleteVertex(1)
}

func TestCloneIsDeep(t *testing.T) {
	g := buildPath(t, 4)
	c := g.Clone()
	g.AddEdge(0, 3, 5)
	g.RemoveEdge(1, 2)
	if c.HasEdge(0, 3) {
		t.Fatal("clone sees edge added to original")
	}
	if !c.HasEdge(1, 2) {
		t.Fatal("clone lost edge removed from original")
	}
	if c.NumEdges() != 3 {
		t.Fatalf("clone NumEdges = %d, want 3", c.NumEdges())
	}
}

func TestAvgAndMaxDegree(t *testing.T) {
	g := buildPath(t, 4) // degrees 1,2,2,1
	if got := g.AvgDegree(); got != 1.5 {
		t.Fatalf("AvgDegree = %v, want 1.5", got)
	}
	if got := g.MaxDegree(); got != 2 {
		t.Fatalf("MaxDegree = %d, want 2", got)
	}
}

// TestInsertRemoveRoundTrip is a property test: applying a random sequence
// of insertions and then removing everything restores an edgeless graph
// with all degrees zero.
func TestInsertRemoveRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 20
		g := New(n)
		for i := 0; i < n; i++ {
			g.AddVertex(Label(rng.Intn(4)))
		}
		type edge struct{ u, v VertexID }
		var added []edge
		for i := 0; i < 60; i++ {
			u := VertexID(rng.Intn(n))
			v := VertexID(rng.Intn(n))
			if g.AddEdge(u, v, Label(rng.Intn(3))) {
				added = append(added, edge{u, v})
			}
		}
		if g.NumEdges() != len(added) {
			return false
		}
		rng.Shuffle(len(added), func(i, j int) { added[i], added[j] = added[j], added[i] })
		for _, e := range added {
			if !g.RemoveEdge(e.u, e.v) {
				return false
			}
		}
		if g.NumEdges() != 0 {
			return false
		}
		for v := 0; v < n; v++ {
			if g.Degree(VertexID(v)) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestAdjacencySymmetry: after arbitrary mutations, u in N(v) iff v in N(u),
// and edge labels agree in both directions.
func TestAdjacencySymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 16
		g := New(n)
		for i := 0; i < n; i++ {
			g.AddVertex(0)
		}
		for i := 0; i < 80; i++ {
			u := VertexID(rng.Intn(n))
			v := VertexID(rng.Intn(n))
			if rng.Intn(3) == 0 {
				g.RemoveEdge(u, v)
			} else {
				g.AddEdge(u, v, Label(rng.Intn(5)))
			}
		}
		for v := 0; v < n; v++ {
			for _, nb := range g.Neighbors(VertexID(v)) {
				l, ok := g.EdgeLabel(nb.ID, VertexID(v))
				if !ok || l != nb.ELabel {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	g := New(4)
	g.AddVertex(3)
	g.AddVertex(1)
	g.AddVertex(1)
	g.AddVertex(0)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 0)
	g.AddEdge(0, 3, 9)

	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumVertices() != 4 || h.NumEdges() != 3 {
		t.Fatalf("round trip size mismatch: %d vertices %d edges", h.NumVertices(), h.NumEdges())
	}
	for v := 0; v < 4; v++ {
		if h.Label(VertexID(v)) != g.Label(VertexID(v)) {
			t.Fatalf("label mismatch at %d", v)
		}
	}
	if l, ok := h.EdgeLabel(0, 3); !ok || l != 9 {
		t.Fatalf("edge label lost: %d %v", l, ok)
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	cases := []string{
		"v 0",            // missing label
		"v 1 0",          // non-dense id
		"e 0 1 0",        // edge before vertices
		"x 0 0 0",        // unknown record
		"v 0 0\ne 0",     // short edge
		"v 0 0\ne 0 5 0", // unknown endpoint
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("Read(%q) succeeded, want error", c)
		}
	}
}

func TestReadAllowsCommentsAndUnlabeledEdges(t *testing.T) {
	in := "# comment\nv 0 1\nv 1 2\n% another\ne 0 1\n"
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if l, _ := g.EdgeLabel(0, 1); l != 0 {
		t.Fatalf("default edge label = %d, want 0", l)
	}
}
