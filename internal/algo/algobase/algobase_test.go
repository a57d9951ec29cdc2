package algobase

import (
	"testing"

	"paracosm/internal/csm"
	"paracosm/internal/graph"
	"paracosm/internal/query"
	"paracosm/internal/stream"
)

// fixture: data graph with two triangles sharing edge (0,1); query is a
// labeled triangle.
func fixture(t *testing.T) (*Base, *graph.Graph, *query.Graph) {
	t.Helper()
	g := graph.New(5)
	g.AddVertex(0) // v0: a
	g.AddVertex(1) // v1: b
	g.AddVertex(2) // v2: c
	g.AddVertex(2) // v3: c
	g.AddVertex(0) // v4: a (isolated)
	g.AddEdge(0, 1, 0)
	g.AddEdge(1, 2, 0)
	g.AddEdge(2, 0, 0)
	g.AddEdge(1, 3, 0)
	g.AddEdge(3, 0, 0)

	q := query.MustNew([]graph.Label{0, 1, 2})
	q.MustAddEdge(0, 1, 0)
	q.MustAddEdge(1, 2, 0)
	q.MustAddEdge(2, 0, 0)
	if err := q.Finalize(); err != nil {
		t.Fatal(err)
	}
	b := &Base{}
	b.Init(g, q)
	return b, g, q
}

func collectRoots(b *Base, upd stream.Update) []csm.State {
	var roots []csm.State
	b.Roots(upd, func(s csm.State) { roots = append(roots, s) })
	return roots
}

func TestRootsOrientation(t *testing.T) {
	b, _, _ := fixture(t)
	// Edge (v0,v1) has labels (a,b): exactly one query edge (u0,u1)
	// matches, unflipped.
	roots := collectRoots(b, stream.Update{Op: stream.AddEdge, U: 0, V: 1})
	if len(roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(roots))
	}
	s := roots[0]
	if s.Matched(0) != 0 || s.Matched(1) != 1 || s.Depth != 2 {
		t.Fatalf("seed state = %+v", s)
	}
	// Reversed endpoints: same query edge, flipped orientation.
	roots = collectRoots(b, stream.Update{Op: stream.AddEdge, U: 1, V: 0})
	if len(roots) != 1 || roots[0].Matched(0) != 0 || roots[0].Matched(1) != 1 {
		t.Fatalf("flipped roots = %+v", roots)
	}
}

func TestRootsLabelMismatch(t *testing.T) {
	b, _, _ := fixture(t)
	// (v2,v3) has labels (c,c): no query edge is (c,c).
	if roots := collectRoots(b, stream.Update{Op: stream.AddEdge, U: 2, V: 3}); len(roots) != 0 {
		t.Fatalf("label-mismatched roots = %v", roots)
	}
}

func TestRootsDegreeFilter(t *testing.T) {
	b, g, _ := fixture(t)
	// v4 (label a) is isolated pre-insert; after inserting (v4,v1) its
	// degree 1 < deg_Q(u0)=2 so the root must be rejected.
	g.AddEdge(4, 1, 0)
	roots := collectRoots(b, stream.Update{Op: stream.AddEdge, U: 4, V: 1})
	if len(roots) != 0 {
		t.Fatalf("degree-infeasible root emitted: %v", roots)
	}
}

func TestRootsVertexOpsEmpty(t *testing.T) {
	b, _, _ := fixture(t)
	if roots := collectRoots(b, stream.Update{Op: stream.AddVertex, VLabel: 0}); len(roots) != 0 {
		t.Fatal("vertex op produced roots")
	}
}

func TestExpandFindsTriangleCompletions(t *testing.T) {
	b, _, _ := fixture(t)
	roots := collectRoots(b, stream.Update{Op: stream.AddEdge, U: 0, V: 1})
	var leaves []csm.State
	b.Expand(&roots[0], func(s csm.State) { leaves = append(leaves, s) })
	// u2 (label c) can map to v2 or v3: two children.
	if len(leaves) != 2 {
		t.Fatalf("children = %d, want 2", len(leaves))
	}
	for _, s := range leaves {
		if c, done := b.Terminal(&s); !done || c != 1 {
			t.Fatalf("leaf not terminal: %+v", s)
		}
		if _, ok := b.CountLastLevel(&s); ok {
			t.Fatalf("a full embedding was counted as a last-position node: %+v", s)
		}
	}
	// The root is one vertex short: counting answers what Expand emitted.
	if n, ok := b.CountLastLevel(&roots[0]); !ok || n != 2 {
		t.Fatalf("CountLastLevel = (%d, %v), want (2, true)", n, ok)
	}
}

func TestExpandRespectsInjectivity(t *testing.T) {
	g := graph.New(3)
	g.AddVertex(0)
	g.AddVertex(0)
	g.AddVertex(0)
	g.AddEdge(0, 1, 0)
	g.AddEdge(1, 2, 0)
	g.AddEdge(2, 0, 0)
	q := query.MustNew([]graph.Label{0, 0, 0})
	q.MustAddEdge(0, 1, 0)
	q.MustAddEdge(1, 2, 0)
	q.MustAddEdge(2, 0, 0)
	if err := q.Finalize(); err != nil {
		t.Fatal(err)
	}
	b := &Base{}
	b.Init(g, q)
	roots := collectRoots(b, stream.Update{Op: stream.AddEdge, U: 0, V: 1})
	for _, r := range roots {
		// Only v2 closes the triangle.
		if n, ok := b.CountLastLevel(&r); !ok || n != 1 {
			t.Fatalf("CountLastLevel = (%d, %v), want (1, true)", n, ok)
		}
		b.Expand(&r, func(s csm.State) {
			seen := map[graph.VertexID]bool{}
			for u := 0; u < 3; u++ {
				v := s.Matched(query.VertexID(u))
				if seen[v] {
					t.Fatalf("non-injective state %+v", s)
				}
				seen[v] = true
			}
		})
	}
}

func TestFilterHook(t *testing.T) {
	b, _, _ := fixture(t)
	b.Filter = func(u query.VertexID, v graph.VertexID) bool { return v != 3 }
	roots := collectRoots(b, stream.Update{Op: stream.AddEdge, U: 0, V: 1})
	var children []csm.State
	b.Expand(&roots[0], func(s csm.State) { children = append(children, s) })
	if len(children) != 1 || children[0].Matched(2) != 2 {
		t.Fatalf("filter not applied: %+v", children)
	}
	if n, _ := b.CountLastLevel(&roots[0]); n != 1 {
		t.Fatalf("filter not applied to the count: %d, want 1", n)
	}
	// Filter rejecting a seed endpoint kills the root.
	b.Filter = func(u query.VertexID, v graph.VertexID) bool { return v != 0 }
	if roots := collectRoots(b, stream.Update{Op: stream.AddEdge, U: 0, V: 1}); len(roots) != 0 {
		t.Fatal("filtered seed still produced a root")
	}
}

func TestRelevantInsertionUsesPostDegrees(t *testing.T) {
	b, g, _ := fixture(t)
	_ = g
	// Pre-apply classification of inserting (v4,v1): v4 currently has
	// degree 0; with the edge it will have degree 1, still below
	// deg_Q(u0)=2 -> not relevant.
	if b.Relevant(stream.Update{Op: stream.AddEdge, U: 4, V: 1}) {
		t.Fatal("degree-infeasible insertion classified relevant")
	}
	// Give v4 one more edge; now post-insert degree 2 suffices.
	g.AddEdge(4, 2, 0)
	if !b.Relevant(stream.Update{Op: stream.AddEdge, U: 4, V: 1}) {
		t.Fatal("feasible insertion classified irrelevant")
	}
}

func TestRelevantDeletion(t *testing.T) {
	b, _, _ := fixture(t)
	// Deleting (v0,v1) — both endpoints have sufficient degree.
	if !b.Relevant(stream.Update{Op: stream.DeleteEdge, U: 0, V: 1}) {
		t.Fatal("match-relevant deletion classified irrelevant")
	}
	if b.Relevant(stream.Update{Op: stream.AddVertex}) {
		t.Fatal("vertex op classified relevant")
	}
}

func TestRelevantStages(t *testing.T) {
	b, g, _ := fixture(t)
	// Label fail: (v2,v3) is (c,c).
	pl, pd := b.RelevantStages(stream.Update{Op: stream.AddEdge, U: 2, V: 3})
	if pl || pd {
		t.Fatalf("label-mismatch stages = %v,%v", pl, pd)
	}
	// Label pass, degree fail: (v4,v1) is (a,b) but v4 is isolated.
	pl, pd = b.RelevantStages(stream.Update{Op: stream.AddEdge, U: 4, V: 1})
	if !pl || pd {
		t.Fatalf("degree-fail stages = %v,%v", pl, pd)
	}
	// Both pass.
	g.AddEdge(4, 2, 0)
	pl, pd = b.RelevantStages(stream.Update{Op: stream.AddEdge, U: 4, V: 1})
	if !pl || !pd {
		t.Fatalf("pass stages = %v,%v", pl, pd)
	}
}

func TestSetOrderOverride(t *testing.T) {
	b, _, q := fixture(t)
	eo := query.EdgeOrientation{Index: 0, Flipped: false}
	custom := []query.VertexID{q.Edges()[0].U, q.Edges()[0].V, 2}
	b.SetOrder(eo, custom)
	got := b.Order(eo)
	for i := range custom {
		if got[i] != custom[i] {
			t.Fatalf("Order = %v, want %v", got, custom)
		}
	}
}

func TestDeletionRootsUseActualEdgeLabel(t *testing.T) {
	// Query edge label 5; data edge stored with label 5. A deletion
	// update does not carry the label — Roots must look it up.
	g := graph.New(2)
	g.AddVertex(0)
	g.AddVertex(1)
	g.AddEdge(0, 1, 5)
	q := query.MustNew([]graph.Label{0, 1})
	q.MustAddEdge(0, 1, 5)
	if err := q.Finalize(); err != nil {
		t.Fatal(err)
	}
	b := &Base{}
	b.Init(g, q)
	roots := collectRoots(b, stream.Update{Op: stream.DeleteEdge, U: 0, V: 1})
	if len(roots) != 1 {
		t.Fatalf("deletion roots = %d, want 1", len(roots))
	}
}

// TestDispatchLabels: the base reports the query's edge label pairs, and an
// installed Filter — the mark of an ADS — as the reason label-safe updates
// at query-labelled vertices must still reach UpdateADS.
func TestDispatchLabels(t *testing.T) {
	b, _, _ := fixture(t)
	pairs, ads := b.DispatchLabels()
	want := map[[2]graph.Label]bool{{0, 1}: true, {1, 2}: true, {0, 2}: true}
	if len(pairs) != len(want) || ads {
		t.Fatalf("DispatchLabels = %v, %v; want the three triangle pairs, no ADS", pairs, ads)
	}
	for _, p := range pairs {
		if !want[p] {
			t.Fatalf("unexpected pair %v in %v", p, pairs)
		}
	}
	b.Filter = func(query.VertexID, graph.VertexID) bool { return true }
	if _, ads := b.DispatchLabels(); !ads {
		t.Fatal("a Filter is installed, yet DispatchLabels reports no ADS")
	}
	var _ csm.LabelDispatch = b
}
