package newsp

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

// deadEndFixture builds a graph where plain backtracking explores many
// partial matches that die one level later, which NewSP's lookahead prunes
// immediately: a hub v0(a) with many b-neighbors, none of which has the
// c-neighbor the query requires except one.
func deadEndFixture(t *testing.T) (*graph.Graph, *query.Graph) {
	t.Helper()
	g := graph.New(30)
	hub := g.AddVertex(0) // a
	var bs []graph.VertexID
	for i := 0; i < 20; i++ {
		bs = append(bs, g.AddVertex(1)) // b
	}
	c := g.AddVertex(2) // c
	for _, b := range bs {
		g.AddEdge(hub, b, 0)
	}
	g.AddEdge(bs[7], c, 0) // only one b has the c continuation

	// Query: a - b - c path.
	q := query.MustNew([]graph.Label{0, 1, 2})
	q.MustAddEdge(0, 1, 0)
	q.MustAddEdge(1, 2, 0)
	if err := q.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g, q
}

func TestLookaheadPrunesDeadEnds(t *testing.T) {
	g, q := deadEndFixture(t)
	// Insert a fresh hub edge (hub, new b) — GraphFlow re-roots at it but
	// NewSP should prune since the new b has no c-neighbor.
	nb := g.AddVertex(1)

	run := func(a csm.Algorithm) (uint64, uint64) {
		gg := g.Clone()
		eng := core.New(a, core.Threads(1), core.InterUpdate(false))
		if err := eng.Init(gg, q); err != nil {
			t.Fatal(err)
		}
		d, err := eng.ProcessUpdate(context.Background(), stream.Update{Op: stream.AddEdge, U: 0, V: nb})
		if err != nil {
			t.Fatal(err)
		}
		return d.Positive, d.Nodes
	}

	posGF, nodesGF := run(graphflow.New())
	posSP, nodesSP := run(New())
	if posGF != posSP {
		t.Fatalf("match counts differ: GraphFlow %d, NewSP %d", posGF, posSP)
	}
	if nodesSP > nodesGF {
		t.Fatalf("NewSP explored %d nodes, GraphFlow %d — lookahead not pruning", nodesSP, nodesGF)
	}
}

func TestNewSPFindsAllMatches(t *testing.T) {
	g, q := deadEndFixture(t)
	eng := core.New(New(), core.Threads(1), core.InterUpdate(false))
	gg := g.Clone()
	gg.RemoveEdge(7+1, 21) // remove the b7-c edge (ids: hub=0, bs start at 1)
	if err := eng.Init(gg, q); err != nil {
		t.Fatal(err)
	}
	// Re-adding it creates exactly one match (hub, b7, c).
	d, err := eng.ProcessUpdate(context.Background(), stream.Update{Op: stream.AddEdge, U: 8, V: 21})
	if err != nil {
		t.Fatal(err)
	}
	if d.Positive != 1 {
		t.Fatalf("positive = %d, want 1", d.Positive)
	}
}

func TestHasCandidateNoConstraint(t *testing.T) {
	g, q := deadEndFixture(t)
	a := New()
	if err := a.Build(g, q); err != nil {
		t.Fatal(err)
	}
	s := csm.NewState(0)
	// No query neighbor of u2 matched yet: vacuously satisfiable.
	if !a.hasCandidate(&s, 2) {
		t.Fatal("unconstrained compatible set reported empty")
	}
}

// Property-ish regression: NewSP and GraphFlow agree on random streams
// (already covered globally in algotest, repeated here cheaply as a guard
// for lookahead edits).
func TestAgreesWithGraphFlowOnRandomStream(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g0 := graph.New(20)
	for i := 0; i < 20; i++ {
		g0.AddVertex(graph.Label(rng.Intn(3)))
	}
	for i := 0; i < 40; i++ {
		g0.AddEdge(graph.VertexID(rng.Intn(20)), graph.VertexID(rng.Intn(20)), 0)
	}
	q := query.MustNew([]graph.Label{0, 1, 2, 1})
	q.MustAddEdge(0, 1, 0)
	q.MustAddEdge(1, 2, 0)
	q.MustAddEdge(2, 3, 0)
	q.MustAddEdge(0, 3, 0)
	if err := q.Finalize(); err != nil {
		t.Fatal(err)
	}

	type result struct{ pos, neg uint64 }
	run := func(a csm.Algorithm) result {
		g := g0.Clone()
		eng := core.New(a, core.Threads(1), core.InterUpdate(false))
		if err := eng.Init(g, q); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		var r result
		for i := 0; i < 50; i++ {
			u := graph.VertexID(rng.Intn(20))
			v := graph.VertexID(rng.Intn(20))
			var upd stream.Update
			if g.HasEdge(u, v) {
				upd = stream.Update{Op: stream.DeleteEdge, U: u, V: v}
			} else if u != v {
				upd = stream.Update{Op: stream.AddEdge, U: u, V: v}
			} else {
				continue
			}
			d, err := eng.ProcessUpdate(context.Background(), upd)
			if err != nil {
				t.Fatal(err)
			}
			r.pos += d.Positive
			r.neg += d.Negative
		}
		return r
	}
	if a, b := run(New()), run(graphflow.New()); a != b {
		t.Fatalf("NewSP %+v != GraphFlow %+v", a, b)
	}
}
