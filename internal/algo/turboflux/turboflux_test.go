package turboflux

import (
	"context"
	"math/rand"
	"testing"

	"paracosm/internal/algo/symbi"
	"paracosm/internal/core"
	"paracosm/internal/csm"
	"paracosm/internal/graph"
	"paracosm/internal/query"
	"paracosm/internal/stream"
)

func cycleQuery(t *testing.T) *query.Graph {
	t.Helper()
	// 4-cycle: contains a non-tree edge under any spanning tree, which is
	// exactly the case distinguishing the DCG from the DCS.
	q := query.MustNew([]graph.Label{0, 1, 0, 1})
	q.MustAddEdge(0, 1, 0)
	q.MustAddEdge(1, 2, 0)
	q.MustAddEdge(2, 3, 0)
	q.MustAddEdge(3, 0, 0)
	if err := q.Finalize(); err != nil {
		t.Fatal(err)
	}
	return q
}

func randomGraphStream(seed int64) (*graph.Graph, stream.Stream) {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(20)
	for i := 0; i < 20; i++ {
		g.AddVertex(graph.Label(rng.Intn(2)))
	}
	for i := 0; i < 40; i++ {
		g.AddEdge(graph.VertexID(rng.Intn(20)), graph.VertexID(rng.Intn(20)), 0)
	}
	sim := g.Clone()
	var s stream.Stream
	for i := 0; i < 35; i++ {
		u := graph.VertexID(rng.Intn(20))
		v := graph.VertexID(rng.Intn(20))
		if sim.HasEdge(u, v) {
			sim.RemoveEdge(u, v)
			s = append(s, stream.Update{Op: stream.DeleteEdge, U: u, V: v})
		} else if u != v {
			sim.AddEdge(u, v, 0)
			s = append(s, stream.Update{Op: stream.AddEdge, U: u, V: v})
		}
	}
	return g, s
}

// TestDCGAgreesWithDCS: TurboFlux (tree index, weaker pruning) and Symbi
// (DAG index) must report identical deltas on cyclic queries, with Symbi
// visiting no more nodes.
func TestDCGAgreesWithDCS(t *testing.T) {
	q := cycleQuery(t)
	for seed := int64(0); seed < 5; seed++ {
		g, s := randomGraphStream(seed)
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
		p1, n1, nodesTF := run(New())
		p2, n2, nodesSY := run(symbi.New())
		if p1 != p2 || n1 != n2 {
			t.Fatalf("seed %d: TurboFlux (+%d,-%d) != Symbi (+%d,-%d)", seed, p1, n1, p2, n2)
		}
		if nodesSY > nodesTF {
			t.Fatalf("seed %d: Symbi visited more nodes (%d) than TurboFlux (%d)", seed, nodesSY, nodesTF)
		}
	}
}

func TestRebuildConsistency(t *testing.T) {
	q := cycleQuery(t)
	g, s := randomGraphStream(11)
	a := New()
	eng := core.New(a, core.Threads(1), core.InterUpdate(false))
	if err := eng.Init(g, q); err != nil {
		t.Fatal(err)
	}
	for i, upd := range s {
		if _, err := eng.ProcessUpdate(context.Background(), upd); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 && !a.RebuildADS() {
			t.Fatalf("DCG inconsistent after update %d", i)
		}
	}
}

func TestName(t *testing.T) {
	if New().Name() != "TurboFlux" {
		t.Fatal("wrong name")
	}
}
