package graphflow

import (
	"context"
	"testing"

	"paracosm/internal/core"
	"paracosm/internal/graph"
	"paracosm/internal/query"
	"paracosm/internal/stream"
)

func fixture(t *testing.T) (*core.Engine, *graph.Graph) {
	t.Helper()
	g := graph.New(4)
	g.AddVertex(0)
	g.AddVertex(1)
	g.AddVertex(2)
	g.AddVertex(2)
	g.AddEdge(0, 1, 0)
	g.AddEdge(1, 2, 0)
	q := query.MustNew([]graph.Label{0, 1, 2})
	q.MustAddEdge(0, 1, 0)
	q.MustAddEdge(1, 2, 0)
	q.MustAddEdge(2, 0, 0)
	if err := q.Finalize(); err != nil {
		t.Fatal(err)
	}
	e := core.New(New(), core.Threads(1), core.InterUpdate(false))
	if err := e.Init(g, q); err != nil {
		t.Fatal(err)
	}
	return e, g
}

func TestTriangleCompletion(t *testing.T) {
	e, _ := fixture(t)
	d, err := e.ProcessUpdate(context.Background(), stream.Update{Op: stream.AddEdge, U: 2, V: 0})
	if err != nil {
		t.Fatal(err)
	}
	if d.Positive != 1 {
		t.Fatalf("positive = %d, want 1 (triangle closed)", d.Positive)
	}
}

func TestNoADS(t *testing.T) {
	a := New()
	g := graph.New(2)
	g.AddVertex(0)
	g.AddVertex(1)
	q := query.MustNew([]graph.Label{0, 1})
	q.MustAddEdge(0, 1, 0)
	if err := q.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := a.Build(g, q); err != nil {
		t.Fatal(err)
	}
	// UpdateADS is a no-op and AffectsADS falls back to label/degree
	// relevance.
	upd := stream.Update{Op: stream.AddEdge, U: 0, V: 1}
	a.UpdateADS(upd)
	if !a.AffectsADS(upd) {
		t.Fatal("relevant insertion must be unsafe for an index-free algorithm")
	}
	if a.AffectsADS(stream.Update{Op: stream.AddVertex}) {
		t.Fatal("vertex op can never be unsafe")
	}
}

func TestName(t *testing.T) {
	if New().Name() != "GraphFlow" {
		t.Fatal("wrong name")
	}
}
