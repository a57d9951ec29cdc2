package dpindex

import (
	"math/rand"
	"testing"
	"testing/quick"

	"paracosm/internal/graph"
	"paracosm/internal/query"
	"paracosm/internal/stream"
)

// pathQuery builds the labeled path 0(a)-1(b)-2(c).
func pathQuery(t *testing.T) *query.Graph {
	t.Helper()
	q := query.MustNew([]graph.Label{0, 1, 2})
	q.MustAddEdge(0, 1, 0)
	q.MustAddEdge(1, 2, 0)
	if err := q.Finalize(); err != nil {
		t.Fatal(err)
	}
	return q
}

// pathData builds a data path v0(a)-v1(b)-v2(c) plus a stray vertex v3(b).
func pathData() *graph.Graph {
	g := graph.New(4)
	g.AddVertex(0)
	g.AddVertex(1)
	g.AddVertex(2)
	g.AddVertex(1)
	g.AddEdge(0, 1, 0)
	g.AddEdge(1, 2, 0)
	return g
}

func TestBuildPathCandidates(t *testing.T) {
	q := pathQuery(t)
	g := pathData()
	ix := New(g, q, DAGSkeleton(q.BuildDAG()), false)
	// v0 is the only candidate for u0, v1 for u1, v2 for u2; v3 (label b,
	// isolated) must be excluded by the degree test and lack of support.
	cases := []struct {
		u    query.VertexID
		v    graph.VertexID
		want bool
	}{
		{0, 0, true}, {1, 1, true}, {2, 2, true},
		{1, 3, false}, {0, 1, false}, {2, 0, false},
	}
	for _, c := range cases {
		if got := ix.Candidate(c.u, c.v); got != c.want {
			t.Errorf("Candidate(u%d, v%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
	if ix.candidateCount(1) != 1 {
		t.Errorf("candidateCount(u1) = %d, want 1", ix.candidateCount(1))
	}
}

func TestTreeSkeletonWeakerThanDAG(t *testing.T) {
	// Triangle query: the DAG covers all 3 edges, the spanning tree only
	// 2 — so a data path (no closing edge) fools the tree index but not
	// the DAG index.
	q := query.MustNew([]graph.Label{0, 1, 2})
	q.MustAddEdge(0, 1, 0)
	q.MustAddEdge(1, 2, 0)
	q.MustAddEdge(2, 0, 0)
	if err := q.Finalize(); err != nil {
		t.Fatal(err)
	}
	g := graph.New(3) // open path: labels a-b-c but no c-a edge
	g.AddVertex(0)
	g.AddVertex(1)
	g.AddVertex(2)
	g.AddEdge(0, 1, 0)
	g.AddEdge(1, 2, 0)
	// Degrees in the triangle query are all 2, so the static filter alone
	// rejects everything here; add parallel support edges to give degree 2.
	g.AddVertex(1) // v3 label b
	g.AddVertex(2) // v4 label c
	g.AddEdge(0, 3, 0)
	g.AddEdge(3, 4, 0)
	g.AddEdge(4, 2, 0)
	g.AddEdge(1, 4, 0)

	dag := New(g, q, DAGSkeleton(q.BuildDAG()), false)
	tree := New(g, q, TreeSkeleton(q, q.BuildSpanningTree()), false)
	dagCands, treeCands := 0, 0
	for u := 0; u < 3; u++ {
		dagCands += dag.candidateCount(query.VertexID(u))
		treeCands += tree.candidateCount(query.VertexID(u))
	}
	if dagCands > treeCands {
		t.Fatalf("DAG candidates (%d) should not exceed tree candidates (%d)", dagCands, treeCands)
	}
}

func TestEdgeLabelsInSkeleton(t *testing.T) {
	q := query.MustNew([]graph.Label{0, 1})
	q.MustAddEdge(0, 1, 7)
	if err := q.Finalize(); err != nil {
		t.Fatal(err)
	}
	g := graph.New(2)
	g.AddVertex(0)
	g.AddVertex(1)
	g.AddEdge(0, 1, 3) // wrong edge label
	ix := New(g, q, DAGSkeleton(q.BuildDAG()), false)
	if ix.Candidate(0, 0) || ix.Candidate(1, 1) {
		t.Fatal("edge-label mismatch not filtered")
	}
	ixIgnore := New(g, q, DAGSkeleton(q.BuildDAG()), true)
	if !ixIgnore.Candidate(0, 0) || !ixIgnore.Candidate(1, 1) {
		t.Fatal("ignoreELabels did not bypass edge labels")
	}
}

func TestIncrementalInsertDeleteMatchesRebuild(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 18
		g := graph.New(n)
		for i := 0; i < n; i++ {
			g.AddVertex(graph.Label(rng.Intn(3)))
		}
		for i := 0; i < 30; i++ {
			g.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)), graph.Label(rng.Intn(2)))
		}
		labels := []graph.Label{0, 1, 2, 1}
		q := query.MustNew(labels)
		q.MustAddEdge(0, 1, 0)
		q.MustAddEdge(1, 2, 0)
		q.MustAddEdge(2, 3, 1)
		q.MustAddEdge(1, 3, 0)
		if q.Finalize() != nil {
			return false
		}
		for _, sk := range []*Skeleton{DAGSkeleton(q.BuildDAG()), TreeSkeleton(q, q.BuildSpanningTree())} {
			ix := New(g.Clone(), q, sk, false)
			gg := ixGraph(ix)
			for step := 0; step < 25; step++ {
				u := graph.VertexID(rng.Intn(n))
				v := graph.VertexID(rng.Intn(n))
				var upd stream.Update
				if gg.HasEdge(u, v) {
					upd = stream.Update{Op: stream.DeleteEdge, U: u, V: v}
				} else if u != v {
					upd = stream.Update{Op: stream.AddEdge, U: u, V: v, ELabel: graph.Label(rng.Intn(2))}
				} else {
					continue
				}
				if upd.Apply(gg) != nil {
					continue
				}
				ix.ApplyUpdate(upd)
				if !ix.ConsistentWithRebuild() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// ixGraph exposes the index's graph for the property test above.
func ixGraph(ix *Index) *graph.Graph { return ix.g }

// TestWouldAffectSoundness: when WouldAffect returns false, applying the
// update and incrementally maintaining must leave the index bit-identical.
func TestWouldAffectSoundness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 16
		g := graph.New(n)
		for i := 0; i < n; i++ {
			g.AddVertex(graph.Label(rng.Intn(3)))
		}
		for i := 0; i < 28; i++ {
			g.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)), 0)
		}
		q := query.MustNew([]graph.Label{0, 1, 2})
		q.MustAddEdge(0, 1, 0)
		q.MustAddEdge(1, 2, 0)
		if q.Finalize() != nil {
			return false
		}
		ix := New(g, q, DAGSkeleton(q.BuildDAG()), false)
		for step := 0; step < 20; step++ {
			u := graph.VertexID(rng.Intn(n))
			v := graph.VertexID(rng.Intn(n))
			var upd stream.Update
			if g.HasEdge(u, v) {
				upd = stream.Update{Op: stream.DeleteEdge, U: u, V: v}
			} else if u != v {
				upd = stream.Update{Op: stream.AddEdge, U: u, V: v}
			} else {
				continue
			}
			affects := ix.WouldAffect(upd)
			before := snapshot(ix)
			if upd.Apply(g) != nil {
				continue
			}
			ix.ApplyUpdate(upd)
			if !affects {
				after := snapshot(ix)
				if before != after {
					return false // claimed no effect but index changed
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func snapshot(ix *Index) string {
	out := make([]byte, 0, 256)
	for u := range ix.d1 {
		for v := range ix.d1[u] {
			b := byte(0)
			if ix.d1[u][v] {
				b |= 1
			}
			if ix.d2[u][v] {
				b |= 2
			}
			out = append(out, b)
		}
	}
	return string(out)
}

func TestVertexOpsGrowIndex(t *testing.T) {
	q := pathQuery(t)
	g := pathData()
	ix := New(g, q, DAGSkeleton(q.BuildDAG()), false)
	upd := stream.Update{Op: stream.AddVertex, VLabel: 1}
	if ix.WouldAffect(upd) {
		t.Fatal("AddVertex should never affect the index")
	}
	if err := upd.Apply(g); err != nil {
		t.Fatal(err)
	}
	ix.ApplyUpdate(upd)
	nv := graph.VertexID(g.NumVertices() - 1)
	if ix.Candidate(1, nv) {
		t.Fatal("fresh isolated vertex cannot be a candidate")
	}
	// An edge touching the new vertex must now be indexable.
	e := stream.Update{Op: stream.AddEdge, U: 0, V: nv}
	if err := e.Apply(g); err != nil {
		t.Fatal(err)
	}
	ix.ApplyUpdate(e)
	if !ix.ConsistentWithRebuild() {
		t.Fatal("index inconsistent after edge to grown vertex")
	}
}
