package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"paracosm/internal/algo/algotest"
	"paracosm/internal/algo/graphflow"
	"paracosm/internal/algo/symbi"
	"paracosm/internal/csm"
	"paracosm/internal/graph"
	"paracosm/internal/query"
	"paracosm/internal/refmatch"
	"paracosm/internal/stream"
)

// TestCountedLastLevelDifferential holds the two ways drain finishes a
// search tree to each other and to the reference, update by update: with an
// OnMatch consumer every leaf is pushed, popped and reported; without one an
// algorithm declaring csm.LeafCounter has its last level counted. Both must
// report the same ΔM⁺, ΔM⁻ and search nodes for every update, equal to
// refmatch, on uniform, deletion-heavy and vertex-op streams — sequentially,
// and under Threads(2) with a one-node escalation budget, where the frontier
// handed to the pool in spans (and donated between workers) is made of
// last-position nodes for the size-4 queries and of their parents for the
// size-5 ones. Algorithms without the capability ride along: for them the
// two runs differ only in the callback. Run with -race.
func TestCountedLastLevelDifferential(t *testing.T) {
	type workload struct {
		name string
		g    *graph.Graph
		q    *query.Graph
		s    stream.Stream
	}
	var workloads []workload
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		g := algotest.RandomGraph(rng, 26, 90, 2, 2)
		q := algotest.RandomQuery(rng, g, 4+int(seed%2))
		if q == nil {
			continue
		}
		uniform := algotest.RandomStream(rng, g, 24, 0.7, 2)
		var vertexOps stream.Stream
		for i, upd := range uniform {
			vertexOps = append(vertexOps, upd)
			if i%6 == 2 {
				// An isolated vertex comes and goes. Ids are never reused
				// and the graphs are clones, so the k-th one is 26+k on
				// every run.
				vertexOps = append(vertexOps,
					stream.Update{Op: stream.AddVertex, VLabel: graph.Label(i % 2)},
					stream.Update{Op: stream.DeleteVertex, U: graph.VertexID(26 + i/6)})
			}
		}
		workloads = append(workloads,
			workload{fmt.Sprintf("uniform%d", seed), g, q, uniform},
			workload{fmt.Sprintf("deletion-heavy%d", seed), g, q, algotest.RandomStream(rng, g, 24, 0.3, 2)},
			workload{fmt.Sprintf("vertex-ops%d", seed), g, q, vertexOps})
	}
	g, q, s := singleRootFixture(rand.New(rand.NewSource(11)))
	workloads = append(workloads, workload{"single-root", g, q, s})

	configs := []struct {
		name      string
		escalates bool
		opts      []Option
	}{
		{"threads1", false, []Option{Threads(1)}},
		{"threads2-spans", true, []Option{Threads(2), EscalateNodes(1), SplitDepth(4)}},
	}

	for _, f := range algotest.Factories() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			t.Parallel()
			_, counts := f.New().(csm.LeafCounter)
			for _, wl := range workloads {
				n := wl.q.NumVertices()
				run := func(consumer bool, opts ...Option) ([]csm.Delta, Stats) {
					eng := New(f.New(), append([]Option{InterUpdate(false)}, opts...)...)
					defer eng.Close()
					if err := eng.Init(wl.g.Clone(), wl.q); err != nil {
						t.Fatal(err)
					}
					var delivered uint64
					if consumer {
						eng.OnMatch = func(st *csm.State, c uint64, _ bool) {
							delivered += c
							if !counts {
								return // CaLiG's counting leaves are partial by design
							}
							for u := 0; u < n; u++ {
								if st.Map[u] == graph.NoVertex {
									t.Errorf("%s: OnMatch got a partial embedding %v", wl.name, st.Map[:n])
								}
							}
						}
					}
					out := make([]csm.Delta, 0, len(wl.s))
					for _, upd := range wl.s {
						d, err := eng.ProcessUpdate(context.Background(), upd)
						if err != nil {
							t.Fatalf("%s: %v: %v", wl.name, upd, err)
						}
						out = append(out, d)
					}
					st := eng.Stats()
					if consumer && delivered != st.Positive+st.Negative {
						t.Fatalf("%s: OnMatch saw %d matches, stats report %d", wl.name, delivered, st.Positive+st.Negative)
					}
					return out, st
				}

				// The enumerating sequential run is the baseline, itself held
				// to the reference.
				want, _ := run(true, Threads(1))
				ref := wl.g.Clone()
				opt := refmatch.Options{IgnoreELabels: f.IgnoreELabels}
				for i, upd := range wl.s {
					pos, neg := refmatch.Delta(ref, wl.q, upd, opt)
					if want[i].Positive != pos || want[i].Negative != neg {
						t.Fatalf("%s update %d (%v): enumerated (+%d,-%d), reference (+%d,-%d)",
							wl.name, i, upd, want[i].Positive, want[i].Negative, pos, neg)
					}
					if err := upd.Apply(ref); err != nil {
						t.Fatal(err)
					}
				}
				for _, cfg := range configs {
					for _, consumer := range []bool{false, true} {
						got, st := run(consumer, cfg.opts...)
						for i := range want {
							if got[i].Positive != want[i].Positive || got[i].Negative != want[i].Negative || got[i].Nodes != want[i].Nodes {
								t.Fatalf("%s/%s consumer=%v update %d (%v): (+%d,-%d,%d nodes), enumerating sequential run (+%d,-%d,%d nodes)",
									wl.name, cfg.name, consumer, i, wl.s[i], got[i].Positive, got[i].Negative, got[i].Nodes,
									want[i].Positive, want[i].Negative, want[i].Nodes)
							}
						}
						if cfg.escalates && st.Nodes > uint64(2*len(wl.s)) && st.Escalations == 0 {
							t.Fatalf("%s/%s: no update escalated; the span hand-over went untested", wl.name, cfg.name)
						}
					}
				}
			}
		})
	}
}

// hubFixture is a workload whose search tree is one root over m
// last-position nodes that each scan the same hub: data vertex 1 (label 1)
// is adjacent to m label-2 and m label-3 vertices, the query is the star
// 0-1, 1-2, 1-3 over labels 0..3, and inserting edge (0,1) — vertex 0 alone
// carries label 0 — maps onto query edge (0,1) only. The search has
// 1 + m + m*m nodes and m*m matches.
func hubFixture(t testing.TB, m int) (*graph.Graph, *query.Graph, stream.Update) {
	t.Helper()
	g := graph.New(2 + 2*m)
	g.AddVertex(0)
	hub := g.AddVertex(1)
	for i := 0; i < m; i++ {
		g.AddEdge(hub, g.AddVertex(2), 0)
		g.AddEdge(hub, g.AddVertex(3), 0)
	}
	q := query.MustNew([]graph.Label{0, 1, 2, 3})
	q.MustAddEdge(0, 1, 0)
	q.MustAddEdge(1, 2, 0)
	q.MustAddEdge(1, 3, 0)
	if err := q.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g, q, stream.Update{Op: stream.AddEdge, U: 0, V: hub}
}

// timeoutInsideCountedLevel is TestTimeoutContract's case for the counted
// last level: a deadline noticed in the middle of a run of last-position
// nodes over a hub still aborts the phase within one poll interval plus the
// one adjacency scan under way, with the mutation applied and a partial
// lower-bound ΔM. Every counted node charges its m leaves to the poll
// countdown, so the first poll falls after the fourth of the m siblings; a
// countdown that a count could skip past would run the tree to the end and
// report no timeout at all.
func timeoutInsideCountedLevel(t *testing.T) {
	const m = 300 // < pollEvery: the countdown expires inside the sibling run
	full := uint64(1 + m + m*m)
	for _, threads := range []int{1, 2} {
		g, q, add := hubFixture(t, m)
		eng := New(graphflow.New(), Threads(threads), InterUpdate(false), EscalateNodes(1))
		defer eng.Close()
		if err := eng.Init(g, q); err != nil {
			t.Fatal(err)
		}
		del := stream.Update{Op: stream.DeleteEdge, U: add.U, V: add.V}

		// Untimed, the round trip explores the whole tree twice.
		for _, upd := range []stream.Update{add, del} {
			d, err := eng.ProcessUpdate(context.Background(), upd)
			if err != nil {
				t.Fatal(err)
			}
			if d.Nodes != full || d.Positive+d.Negative != m*m {
				t.Fatalf("threads %d: untimed %v: %d nodes, %d matches; want %d, %d", threads, upd, d.Nodes, d.Positive+d.Negative, full, m*m)
			}
		}

		expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
		defer cancel()
		// One poll interval and one scan per searcher that got to run.
		limit := uint64(1 + threads*(pollEvery+m))

		d, err := eng.ProcessUpdate(expired, add)
		if err != csm.ErrDeadline {
			t.Fatalf("threads %d: AddEdge err = %v, want ErrDeadline", threads, err)
		}
		if !g.HasEdge(add.U, add.V) {
			t.Fatal("AddEdge timeout rolled back the mutation; contract says applied")
		}
		if d.Nodes > limit || d.Nodes >= full || d.Positive > d.Nodes {
			t.Fatalf("threads %d: timed-out AddEdge: %d nodes, +%d; want at most %d nodes of %d and a lower bound", threads, d.Nodes, d.Positive, limit, full)
		}
		if d.Nodes <= m {
			t.Fatalf("threads %d: aborted after %d nodes, before any poll was due: the deadline was not noticed inside the counted run", threads, d.Nodes)
		}

		d, err = eng.ProcessUpdate(expired, del)
		if err != csm.ErrDeadline {
			t.Fatalf("threads %d: DeleteEdge err = %v, want ErrDeadline", threads, err)
		}
		if g.HasEdge(add.U, add.V) {
			t.Fatal("DeleteEdge timeout left the edge in the graph; contract says applied")
		}
		if d.Nodes > limit || d.Nodes >= full || d.Negative > d.Nodes {
			t.Fatalf("threads %d: timed-out DeleteEdge: %d nodes, -%d; want at most %d nodes of %d and a lower bound", threads, d.Nodes, d.Negative, limit, full)
		}

		// The engine is intact afterwards.
		if d, err := eng.ProcessUpdate(context.Background(), add); err != nil || d.Nodes != full {
			t.Fatalf("threads %d: post-timeout update: %d nodes, err %v; want %d, nil", threads, d.Nodes, err, full)
		}
	}
}

// TestCountedLastLevelAllocations pins the counting path's allocation
// contract on the two kinds of algorithm that declare it. GraphFlow: a whole
// ProcessUpdate whose search ends in counted last-position nodes allocates
// nothing. Symbi: its ProcessUpdate allocates in the DCS upkeep (the
// worklist of dpindex's propagate, ROADMAP item 6), so the pin is on the
// find phase alone — zipper, DCS filter, count — run over the standing edge
// as a deletion's enumeration would.
func TestCountedLastLevelAllocations(t *testing.T) {
	const m = 20
	const nodes = 1 + m + m*m
	ctx := context.Background()

	g, q, add := hubFixture(t, m)
	del := stream.Update{Op: stream.DeleteEdge, U: add.U, V: add.V}
	gf := New(graphflow.New(), Threads(1), InterUpdate(false))
	defer gf.Close()
	if err := gf.Init(g, q); err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		for _, upd := range []stream.Update{add, del} {
			d, err := gf.ProcessUpdate(ctx, upd)
			if err != nil {
				t.Fatal(err)
			}
			if d.Nodes != nodes || d.Positive+d.Negative != m*m {
				t.Fatalf("%v: %d nodes, %d matches; want %d, %d", upd, d.Nodes, d.Positive+d.Negative, nodes, m*m)
			}
		}
	}
	for i := 0; i < 8; i++ { // adjacency slices, ThreadBusy, the stack
		cycle()
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("GraphFlow: ProcessUpdate through the counted last level allocates %.1f times per insert/delete pair, want 0", n)
	}

	g, q, add = hubFixture(t, m)
	del.U, del.V = add.U, add.V
	sy := New(symbi.New(), Threads(1), InterUpdate(false))
	defer sy.Close()
	if err := sy.Init(g, q); err != nil {
		t.Fatal(err)
	}
	if _, err := sy.ProcessUpdate(ctx, add); err != nil {
		t.Fatal(err)
	}
	find := func() {
		r, _ := sy.findMatchesParallel(time.Time{}, false, del, false)
		if r.nodes != nodes || r.matches != m*m {
			t.Fatalf("Symbi: find phase saw %d nodes, %d matches; want %d, %d", r.nodes, r.matches, nodes, m*m)
		}
	}
	find()
	if n := testing.AllocsPerRun(100, find); n != 0 {
		t.Errorf("Symbi: find phase through the counted last level allocates %.1f times, want 0", n)
	}
}
