package paracosm_test

import (
	"context"
	"testing"

	"paracosm"
)

// TestFacadeEndToEnd drives the whole public API the way the README's
// quickstart does.
func TestFacadeEndToEnd(t *testing.T) {
	g := paracosm.NewGraph(4)
	a := g.AddVertex(1)
	b := g.AddVertex(2)
	c := g.AddVertex(1)
	_ = g.AddVertex(2)

	q := paracosm.MustNewQuery([]paracosm.Label{1, 2})
	q.MustAddEdge(0, 1, 0)
	if err := q.Finalize(); err != nil {
		t.Fatal(err)
	}

	for _, mk := range []func() paracosm.Algorithm{
		paracosm.GraphFlow, paracosm.TurboFlux, paracosm.Symbi,
		paracosm.NewSP, paracosm.CaLiG, paracosm.CaLiGCounting,
	} {
		algo := mk()
		eng := paracosm.New(algo, paracosm.Threads(2))
		gg := g.Clone()
		if err := eng.Init(gg, q); err != nil {
			t.Fatalf("%s: %v", algo.Name(), err)
		}
		ctx := context.Background()
		d, err := eng.ProcessUpdate(ctx, paracosm.AddEdge(a, b, 0))
		if err != nil {
			t.Fatalf("%s: %v", algo.Name(), err)
		}
		if d.Positive != 1 {
			t.Fatalf("%s: +%d matches, want 1", algo.Name(), d.Positive)
		}
		if _, err := eng.ProcessUpdate(ctx, paracosm.AddEdge(c, b, 0)); err != nil {
			t.Fatal(err)
		}
		d, err = eng.ProcessUpdate(ctx, paracosm.DeleteEdge(a, b))
		if err != nil {
			t.Fatalf("%s: %v", algo.Name(), err)
		}
		if d.Negative != 1 {
			t.Fatalf("%s: -%d matches, want 1", algo.Name(), d.Negative)
		}
	}
}

func TestFacadeRunStreamWithStats(t *testing.T) {
	g := paracosm.NewGraph(3)
	v0 := g.AddVertex(0)
	v1 := g.AddVertex(1)
	v2 := g.AddVertex(5) // label matching nothing

	q := paracosm.MustNewQuery([]paracosm.Label{0, 1})
	q.MustAddEdge(0, 1, 0)
	if err := q.Finalize(); err != nil {
		t.Fatal(err)
	}

	eng := paracosm.New(paracosm.Symbi(), paracosm.Threads(2), paracosm.InterUpdate(true))
	if err := eng.Init(g, q); err != nil {
		t.Fatal(err)
	}
	var seen int
	eng.OnMatch = func(s *paracosm.State, count uint64, positive bool) { seen++ }
	st, err := eng.Run(context.Background(), paracosm.Stream{
		paracosm.AddEdge(v0, v1, 0),
		paracosm.AddEdge(v0, v2, 0), // label-safe
		paracosm.AddVertex(9),
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Positive != 1 || seen != 1 {
		t.Fatalf("positive=%d seen=%d", st.Positive, seen)
	}
	if st.SafeUpdates < 2 {
		t.Fatalf("SafeUpdates = %d, want >= 2", st.SafeUpdates)
	}
}

func TestFacadeDatasets(t *testing.T) {
	d := paracosm.LiveJournalLike(paracosm.DatasetScale(0.0002), paracosm.DatasetSeed(1))
	if d.Graph.NumVertices() == 0 || len(d.Stream) == 0 {
		t.Fatal("empty dataset")
	}
	q, err := d.RandomQuery(4)
	if err != nil {
		t.Fatal(err)
	}
	eng := paracosm.New(paracosm.GraphFlow())
	if err := eng.Init(d.Graph.Clone(), q); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), d.Stream[:50]); err != nil {
		t.Fatal(err)
	}
}
