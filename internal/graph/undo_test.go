package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// snapshot captures the full observable state of g for equality checks.
type snapshot struct {
	labels  []Label
	adj     [][]Neighbor
	segs    [][]labelSeg
	alive   []bool
	edges   int
	byLabel map[Label]map[VertexID]bool
}

func snap(g *Graph) snapshot {
	s := snapshot{
		labels:  append([]Label(nil), g.labels...),
		alive:   append([]bool(nil), g.alive...),
		edges:   g.NumEdges(),
		byLabel: make(map[Label]map[VertexID]bool),
	}
	for _, a := range g.adj {
		s.adj = append(s.adj, append([]Neighbor(nil), a...))
	}
	for _, sg := range g.segs {
		s.segs = append(s.segs, append([]labelSeg(nil), sg...))
	}
	// byLabel order is unspecified, so compare as sets; empty entries are
	// skipped because DeleteVertex (and the rollback of AddVertex) leave
	// the map key behind with an empty slice — observably equivalent.
	for l, ids := range g.byLabel {
		if len(ids) == 0 {
			continue
		}
		set := make(map[VertexID]bool, len(ids))
		for _, id := range ids {
			set[id] = true
		}
		s.byLabel[l] = set
	}
	return s
}

func TestUndoLogRollbackRestores(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := New(16)
	for i := 0; i < 12; i++ {
		g.AddVertex(Label(rng.Intn(3)))
	}
	for i := 0; i < 25; i++ {
		u := VertexID(rng.Intn(12))
		v := VertexID(rng.Intn(12))
		if u != v {
			g.AddEdge(u, v, Label(rng.Intn(2)))
		}
	}
	// One isolated vertex to delete speculatively.
	iso := g.AddVertex(1)

	before := snap(g)
	var log UndoLog

	// A speculative batch touching every mutation kind, including edges on
	// a speculatively added vertex and a delete of a pre-existing edge.
	nv := g.AddVertexLogged(2, &log)
	if !g.AddEdgeLogged(nv, 0, 1, &log) {
		t.Fatal("AddEdgeLogged(nv, 0) failed")
	}
	if !g.AddEdgeLogged(3, 7, 0, &log) && !g.RemoveEdgeLogged(3, 7, &log) {
		t.Fatal("edge (3,7) neither addable nor removable")
	}
	removed := false
	for v := VertexID(0); v < 12 && !removed; v++ {
		for _, nb := range append([]Neighbor(nil), g.Neighbors(v)...) {
			if g.RemoveEdgeLogged(v, nb.ID, &log) {
				removed = true
				break
			}
		}
	}
	if !removed {
		t.Fatal("no edge to remove")
	}
	// Undo of AddEdge on nv must run before undo of AddVertex(nv).
	if !g.RemoveEdgeLogged(nv, 0, &log) {
		t.Fatal("RemoveEdgeLogged(nv, 0) failed")
	}
	g.DeleteVertexLogged(iso, &log)

	if log.Len() == 0 {
		t.Fatal("empty log after speculative batch")
	}
	log.Rollback(g)
	if log.Len() != 0 {
		t.Fatalf("log not reset after rollback: %d entries", log.Len())
	}
	if after := snap(g); !reflect.DeepEqual(before, after) {
		t.Fatalf("rollback did not restore graph:\nbefore %+v\nafter  %+v", before, after)
	}
}

func TestUndoLogRandomizedRollback(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := New(8)
		for i := 0; i < 8; i++ {
			g.AddVertex(Label(rng.Intn(2)))
		}
		for i := 0; i < 10; i++ {
			u := VertexID(rng.Intn(8))
			v := VertexID(rng.Intn(8))
			if u != v {
				g.AddEdge(u, v, 0)
			}
		}
		before := snap(g)
		var log UndoLog
		for i := 0; i < 30; i++ {
			n := g.NumVertices()
			u := VertexID(rng.Intn(n))
			v := VertexID(rng.Intn(n))
			switch rng.Intn(4) {
			case 0:
				if u != v {
					g.AddEdgeLogged(u, v, Label(rng.Intn(2)), &log)
				}
			case 1:
				g.RemoveEdgeLogged(u, v, &log)
			case 2:
				g.AddVertexLogged(Label(rng.Intn(2)), &log)
			case 3:
				if g.Alive(u) && g.Degree(u) == 0 {
					g.DeleteVertexLogged(u, &log)
				}
			}
		}
		log.Rollback(g)
		if after := snap(g); !reflect.DeepEqual(before, after) {
			t.Fatalf("seed %d: rollback did not restore graph", seed)
		}
	}
}
