package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"paracosm/internal/algo/algotest"
	"paracosm/internal/csm"
	"paracosm/internal/graph"
	"paracosm/internal/query"
	"paracosm/internal/stream"
)

// kernelCounted is what the bundled algorithms built on algobase.Base
// expose; the differential test holds its totals equal too.
type kernelCounted interface {
	KernelCounters() graph.KernelCounters
}

// singleRootFixture is a workload whose every update seeds exactly one
// search-tree root: vertex 0 alone carries label 0, only query edge (0,1)
// joins labels 0 and 1, and the stream flips edges at vertex 0. Escalated
// after one node, the frontier is the children of that one root: a short
// queue over uneven subtrees, so workers run dry while a sibling still
// holds a deep stack and the epoch tends to finish by donation (how often
// is up to the scheduler; TestStarvationResplit forces it).
func singleRootFixture(rng *rand.Rand) (*graph.Graph, *query.Graph, stream.Stream) {
	const n = 40
	g := graph.New(n)
	g.AddVertex(0)
	for i := 1; i < n; i++ {
		g.AddVertex(1)
	}
	for i := 0; i < 420; i++ {
		u, v := graph.VertexID(1+rng.Intn(n-1)), graph.VertexID(1+rng.Intn(n-1))
		if u != v {
			g.AddEdge(u, v, 0)
		}
	}
	q := query.MustNew([]graph.Label{0, 1, 1, 1, 1})
	q.MustAddEdge(0, 1, 0)
	q.MustAddEdge(1, 2, 0)
	q.MustAddEdge(2, 3, 0)
	q.MustAddEdge(3, 4, 0)
	q.MustAddEdge(1, 3, 0)
	if err := q.Finalize(); err != nil {
		panic(err)
	}
	var s stream.Stream
	for _, v := range rng.Perm(n - 1)[:8] {
		s = append(s, stream.Update{Op: stream.AddEdge, U: 0, V: graph.VertexID(1 + v)})
	}
	for i := len(s) - 1; i >= 0; i -= 2 {
		s = append(s, stream.Update{Op: stream.DeleteEdge, U: s[i].U, V: s[i].V})
	}
	return g, q, s
}

// TestParallelPhaseDifferential holds the real parallel phase to the
// sequential engine, for every bundled algorithm: equal ΔM⁺, ΔM⁻, search
// nodes and — the per-searcher counter stripes must lose nothing —
// intersection-kernel totals, on seeded streams of edge inserts, edge
// deletes and vertex ops. EscalateNodes(1) sends every update with more
// than one search node through a pool epoch; the other rows vary what the
// epoch has to cope with (no re-splitting, a shallow split depth, fewer or
// more workers than frontier states). This is the test that exercises the
// pool's span hand-over, parking/termination protocol and donation; run
// with -race.
func TestParallelPhaseDifferential(t *testing.T) {
	configs := []struct {
		name string
		opts []Option
	}{
		{"threads4", []Option{Threads(4), EscalateNodes(1)}},
		{"threads4-unbalanced", []Option{Threads(4), EscalateNodes(1), LoadBalance(false)}},
		{"threads2-split3", []Option{Threads(2), EscalateNodes(16), SplitDepth(3)}},
		{"threads8-split3", []Option{Threads(8), EscalateNodes(16), SplitDepth(3)}},
	}
	type workload struct {
		name string
		g    *graph.Graph
		q    *query.Graph
		s    stream.Stream
	}
	var workloads []workload
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Dense, label-poor graph: search trees explode past any small
		// escalation budget on nearly every update.
		g := algotest.RandomGraph(rng, 60, 600, 1, 1)
		q := algotest.RandomQuery(rng, g, 4)
		if q == nil {
			continue
		}
		s := algotest.RandomStream(rng, g, 12, 0.8, 1)
		// Vertex ops ride the same path: add an isolated vertex (id 60 on
		// every run, graphs are clones) and delete it.
		s = append(s,
			stream.Update{Op: stream.AddVertex, VLabel: 1},
			stream.Update{Op: stream.DeleteVertex, U: 60})
		workloads = append(workloads, workload{fmt.Sprintf("dense%d", seed), g, q, s})
	}
	g, q, s := singleRootFixture(rand.New(rand.NewSource(11)))
	workloads = append(workloads, workload{"single-root", g, q, s})

	for _, f := range algotest.Factories() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			t.Parallel()
			for _, wl := range workloads {
				run := func(opts ...Option) (Stats, graph.KernelCounters) {
					a := f.New()
					eng := New(a, append([]Option{InterUpdate(false)}, opts...)...)
					defer eng.Close()
					if err := eng.Init(wl.g.Clone(), wl.q); err != nil {
						t.Fatal(err)
					}
					st, err := eng.Run(context.Background(), wl.s)
					if err != nil {
						t.Fatal(err)
					}
					var kc graph.KernelCounters
					if k, ok := a.(kernelCounted); ok {
						kc = k.KernelCounters()
					}
					return st, kc
				}
				want, wantKC := run(Threads(1))
				for _, cfg := range configs {
					got, gotKC := run(cfg.opts...)
					if got.Positive != want.Positive || got.Negative != want.Negative || got.Nodes != want.Nodes {
						t.Fatalf("%s/%s: (+%d,-%d,%d nodes) != sequential (+%d,-%d,%d nodes)", wl.name, cfg.name,
							got.Positive, got.Negative, got.Nodes, want.Positive, want.Negative, want.Nodes)
					}
					if gotKC != wantKC {
						t.Fatalf("%s/%s: kernel counters %+v != sequential %+v", wl.name, cfg.name, gotKC, wantKC)
					}
					if want.Nodes > uint64(2*len(wl.s)) && got.Escalations == 0 {
						t.Fatalf("%s/%s: no update escalated; the parallel phase went untested", wl.name, cfg.name)
					}
				}
			}
		})
	}
}

// TestWorkerPoolOnMatchSerialized: the OnMatch callback must observe every
// match exactly once even when emitted from many workers.
func TestWorkerPoolOnMatchSerialized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g0 := algotest.RandomGraph(rng, 50, 500, 1, 1)
	q := algotest.RandomQuery(rng, g0, 4)
	if q == nil {
		t.Skip("no query")
	}
	s := algotest.RandomStream(rng, g0, 8, 1.0, 1)
	f := algotest.Factories()[2]

	eng := New(f.New(), Threads(4), InterUpdate(false), EscalateNodes(16))
	if err := eng.Init(g0.Clone(), q); err != nil {
		t.Fatal(err)
	}
	var callbackCount uint64
	eng.OnMatch = func(st *csm.State, count uint64, positive bool) { callbackCount += count }
	st, err := eng.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if callbackCount != st.Positive+st.Negative {
		t.Fatalf("OnMatch saw %d, stats report %d", callbackCount, st.Positive+st.Negative)
	}
}
