package symbi

import (
	"context"
	"math/rand"
	"testing"

	"paracosm/internal/algo/graphflow"
	"paracosm/internal/core"
	"paracosm/internal/csm"
	"paracosm/internal/graph"
	"paracosm/internal/query"
	"paracosm/internal/stream"
)

func randomWorkload(seed int64) (*graph.Graph, *query.Graph, stream.Stream) {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(24)
	for i := 0; i < 24; i++ {
		g.AddVertex(graph.Label(rng.Intn(3)))
	}
	for i := 0; i < 50; i++ {
		g.AddEdge(graph.VertexID(rng.Intn(24)), graph.VertexID(rng.Intn(24)), graph.Label(rng.Intn(2)))
	}
	q := query.MustNew([]graph.Label{0, 1, 2, 1})
	q.MustAddEdge(0, 1, 0)
	q.MustAddEdge(1, 2, 1)
	q.MustAddEdge(2, 3, 0)
	if q.Finalize() != nil {
		panic("finalize")
	}
	sim := g.Clone()
	var s stream.Stream
	for i := 0; i < 40; i++ {
		u := graph.VertexID(rng.Intn(24))
		v := graph.VertexID(rng.Intn(24))
		if sim.HasEdge(u, v) {
			sim.RemoveEdge(u, v)
			s = append(s, stream.Update{Op: stream.DeleteEdge, U: u, V: v})
		} else if u != v {
			l := graph.Label(rng.Intn(2))
			sim.AddEdge(u, v, l)
			s = append(s, stream.Update{Op: stream.AddEdge, U: u, V: v, ELabel: l})
		}
	}
	return g, q, s
}

// TestDCSPrunesButPreservesResults: Symbi must visit no more search nodes
// than GraphFlow while reporting the same deltas.
func TestDCSPrunesButPreservesResults(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g, q, s := randomWorkload(seed)
		run := func(a csm.Algorithm) (pos, neg, nodes uint64) {
			eng := core.New(a, core.Threads(1), core.InterUpdate(false))
			if err := eng.Init(g.Clone(), q); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Run(context.Background(), s); err != nil {
				t.Fatal(err)
			}
			st := eng.Stats()
			return st.Positive, st.Negative, st.Nodes
		}
		p1, n1, nodes1 := run(New())
		p2, n2, nodes2 := run(graphflow.New())
		if p1 != p2 || n1 != n2 {
			t.Fatalf("seed %d: Symbi (+%d,-%d) != GraphFlow (+%d,-%d)", seed, p1, n1, p2, n2)
		}
		if nodes1 > nodes2 {
			t.Fatalf("seed %d: Symbi visited %d nodes, GraphFlow %d — DCS not pruning", seed, nodes1, nodes2)
		}
	}
}

func TestRebuildConsistencyAfterStream(t *testing.T) {
	g, q, s := randomWorkload(42)
	a := New()
	eng := core.New(a, core.Threads(1), core.InterUpdate(false))
	if err := eng.Init(g, q); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	if !a.RebuildADS() {
		t.Fatal("DCS inconsistent with rebuild after stream")
	}
}

func TestAffectsADSConservative(t *testing.T) {
	g, q, s := randomWorkload(7)
	a := New()
	if err := a.Build(g, q); err != nil {
		t.Fatal(err)
	}
	// Any update that currently yields roots must be flagged unsafe.
	for _, upd := range s[:10] {
		if upd.Op != stream.AddEdge {
			continue
		}
		h := g.Clone()
		if upd.Apply(h) != nil {
			continue
		}
		b := New()
		if err := b.Build(h, q); err != nil {
			t.Fatal(err)
		}
		gotRoots := 0
		b.Roots(upd, func(csm.State) { gotRoots++ })
		if gotRoots > 0 && !a.AffectsADS(upd) {
			t.Fatalf("update %v yields %d roots but classified safe", upd, gotRoots)
		}
	}
}

func TestName(t *testing.T) {
	if New().Name() != "Symbi" {
		t.Fatal("wrong name")
	}
	if New().ix != nil {
		t.Fatal("index should be nil before Build")
	}
}
