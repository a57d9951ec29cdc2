package paracosm

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"paracosm/internal/algo"
	"paracosm/internal/algo/algotest"
	"paracosm/internal/bench"
	"paracosm/internal/core"
	"paracosm/internal/csm"
	"paracosm/internal/dataset"
	"paracosm/internal/graph"
	"paracosm/internal/obs"
	"paracosm/internal/query"
	"paracosm/internal/stream"
)

// benchConfig is a small-but-representative configuration so the full
// suite completes in minutes. The cmd/experiments binary runs the same
// experiments at paper scale.
func benchConfig() bench.Config {
	return bench.Config{
		Scale:          0.001,
		Seed:           1,
		QueriesPerSize: 1,
		StreamCap:      120,
		Budget:         500 * time.Millisecond,
		Threads:        8,
	}.Defaults()
}

// benchmarkExperiment reruns one table/figure regeneration end to end.
func benchmarkExperiment(b *testing.B, id string) {
	e, err := bench.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(cfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper table/figure (see DESIGN.md §4 for the index).

func BenchmarkTable1Reference(b *testing.B)    { benchmarkExperiment(b, "table1") }
func BenchmarkFig4SingleThreaded(b *testing.B) { benchmarkExperiment(b, "fig4") }
func BenchmarkTable3Breakdown(b *testing.B)    { benchmarkExperiment(b, "table3") }
func BenchmarkTable4UnsafeRatio(b *testing.B)  { benchmarkExperiment(b, "table4") }
func BenchmarkFig7Speedup(b *testing.B)        { benchmarkExperiment(b, "fig7") }
func BenchmarkFig8BigQueries(b *testing.B)     { benchmarkExperiment(b, "fig8") }
func BenchmarkTable6SuccessRate(b *testing.B)  { benchmarkExperiment(b, "table6") }
func BenchmarkFig9Scalability(b *testing.B)    { benchmarkExperiment(b, "fig9") }
func BenchmarkFig10LoadBalance(b *testing.B)   { benchmarkExperiment(b, "fig10") }
func BenchmarkFig11InterUpdate(b *testing.B)   { benchmarkExperiment(b, "fig11") }
func BenchmarkFig12Filtering(b *testing.B)     { benchmarkExperiment(b, "fig12") }
func BenchmarkModelAnalytical(b *testing.B)    { benchmarkExperiment(b, "model") }

// Micro-benchmarks of the moving parts the figures are built from.

// BenchmarkProcessUpdate measures one full update through each algorithm
// (apply + ADS maintenance + incremental search), single-threaded.
func BenchmarkProcessUpdate(b *testing.B) {
	d := dataset.LiveJournalLike(dataset.Scale(0.001), dataset.Seed(3))
	q, err := d.RandomQuery(6)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range algo.Registry() {
		b.Run(e.Name, func(b *testing.B) {
			g := d.Graph.Clone()
			eng := core.New(e.New(), core.Threads(1), core.InterUpdate(false))
			if err := eng.Init(g, q); err != nil {
				b.Fatal(err)
			}
			s := d.Stream
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				upd := s[i%len(s)]
				if _, err := eng.ProcessUpdate(ctx, upd); err != nil {
					// Duplicate inserts when wrapping around: reset graph.
					b.StopTimer()
					g = d.Graph.Clone()
					eng = core.New(e.New(), core.Threads(1), core.InterUpdate(false))
					if err := eng.Init(g, q); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			}
		})
	}
}

// BenchmarkProcessUpdateTracer measures observability overhead on the
// per-update hot path: the same workload with no tracer and with a tracer
// attached. The allocs/op columns are the layer's contract — the nil path
// allocates nothing, and attaching a tracer adds zero allocations (events
// are stack-built, the ring preallocated, histogram memory fixed).
func BenchmarkProcessUpdateTracer(b *testing.B) {
	d := dataset.LiveJournalLike(dataset.Scale(0.001), dataset.Seed(3))
	q, err := d.RandomQuery(6)
	if err != nil {
		b.Fatal(err)
	}
	e, err := algo.ByName("GraphFlow")
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		tracer *obs.Tracer
	}{
		{"nil", nil},
		{"traced", obs.NewTracer(obs.DefaultRingCap)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			g := d.Graph.Clone()
			eng := core.New(e.New(), core.Threads(1), core.InterUpdate(false), core.WithTracer(tc.tracer))
			defer eng.Close()
			if err := eng.Init(g, q); err != nil {
				b.Fatal(err)
			}
			s := d.Stream
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				upd := s[i%len(s)]
				if _, err := eng.ProcessUpdate(ctx, upd); err != nil {
					b.StopTimer()
					g = d.Graph.Clone()
					eng = core.New(e.New(), core.Threads(1), core.InterUpdate(false), core.WithTracer(tc.tracer))
					if err := eng.Init(g, q); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			}
		})
	}
}

// BenchmarkClassifier measures the three-stage update classifier alone —
// the per-update cost of inter-update parallelism.
func BenchmarkClassifier(b *testing.B) {
	d := dataset.OrkutLike(dataset.Scale(0.001), dataset.Seed(3))
	q, err := d.RandomQuery(6)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range algo.Registry() {
		b.Run(e.Name, func(b *testing.B) {
			a := e.New()
			if err := a.Build(d.Graph.Clone(), q); err != nil {
				b.Fatal(err)
			}
			s := d.Stream
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.AffectsADS(s[i%len(s)])
			}
		})
	}
}

// BenchmarkUpdateADS measures incremental index maintenance in isolation
// (the T_ADS of the §4.3 model).
func BenchmarkUpdateADS(b *testing.B) {
	d := dataset.LiveJournalLike(dataset.Scale(0.001), dataset.Seed(3))
	q, err := d.RandomQuery(6)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"TurboFlux", "Symbi", "CaLiG"} {
		e, err := algo.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			g := d.Graph.Clone()
			a := e.New()
			if err := a.Build(g, q); err != nil {
				b.Fatal(err)
			}
			s := d.Stream
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				upd := s[i%len(s)]
				if i%len(s) == 0 && i > 0 {
					b.StopTimer()
					g = d.Graph.Clone()
					a = e.New()
					if err := a.Build(g, q); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				if err := upd.Apply(g); err == nil {
					a.UpdateADS(upd)
				}
			}
		})
	}
}

// BenchmarkGraphMutation measures the dynamic graph substrate.
func BenchmarkGraphMutation(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := algotest.RandomGraph(rng, 10000, 80000, 8, 2)
	n := g.NumVertices()
	b.Run("AddRemoveEdge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			u := graph.VertexID(rng.Intn(n))
			v := graph.VertexID(rng.Intn(n))
			if g.AddEdge(u, v, 0) {
				g.RemoveEdge(u, v)
			}
		}
	})
}

// BenchmarkInnerExecutor measures parallel search thread-scaling on one
// deliberately heavy update (simulated schedule, so the numbers are
// meaningful on any machine).
func BenchmarkInnerExecutor(b *testing.B) {
	d := dataset.LiveJournalLike(dataset.Scale(0.002), dataset.Seed(5))
	q, err := d.RandomQuery(9)
	if err != nil {
		b.Fatal(err)
	}
	e, err := algo.ByName("GraphFlow")
	if err != nil {
		b.Fatal(err)
	}
	for _, threads := range []int{1, 8, 32} {
		name := fmt.Sprintf("T%d", threads)
		if threads > 1 {
			name = fmt.Sprintf("simT%d", threads)
		}
		b.Run(name, func(b *testing.B) {
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := d.Graph.Clone()
				eng := core.New(e.New(), core.Threads(threads), core.Simulate(threads > 1), core.InterUpdate(false))
				if err := eng.Init(g, q); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, upd := range d.Stream[:200] {
					if _, err := eng.ProcessUpdate(ctx, upd); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkFindMatchesLastLevel measures the per-node cost of Find-Matches
// with and without a match consumer: with OnMatch nil the engine counts the
// last level of the search tree through csm.LeafCounter, with OnMatch set
// it pushes, pops and reports every leaf. Both explore the same tree, so
// ns/node — Find-Matches time over search nodes, ADS upkeep left out — is
// directly comparable. One iteration is a round trip — 200 insertions, then
// their deletions in reverse — over a small 6-label Amazon-like graph, on
// one size-5 query per algorithm.
func BenchmarkFindMatchesLastLevel(b *testing.B) {
	d := dataset.AmazonLike(dataset.Scale(0.02), dataset.Seed(3))
	trip := append(stream.Stream(nil), d.Stream[:200]...)
	for i := 199; i >= 0; i-- {
		trip = append(trip, stream.Update{Op: stream.DeleteEdge, U: trip[i].U, V: trip[i].V})
	}
	mk := func(labels []graph.Label, edges [][2]query.VertexID) *query.Graph {
		q := query.MustNew(labels)
		for _, e := range edges {
			q.MustAddEdge(e[0], e[1], 0)
		}
		if err := q.Finalize(); err != nil {
			b.Fatal(err)
		}
		return q
	}
	for _, tc := range []struct {
		algo string
		q    *query.Graph
	}{
		{"GraphFlow", mk([]graph.Label{0, 1, 2, 0, 1}, [][2]query.VertexID{{0, 1}, {1, 2}, {2, 3}, {3, 4}})}, // path
		{"Symbi", mk([]graph.Label{0, 0, 1, 0, 1}, [][2]query.VertexID{{0, 1}, {0, 2}, {0, 3}, {3, 4}})},     // star with a tail
	} {
		e, err := algo.ByName(tc.algo)
		if err != nil {
			b.Fatal(err)
		}
		for _, consumer := range []bool{false, true} {
			name := tc.algo + "/OnMatch=nil"
			if consumer {
				name = tc.algo + "/OnMatch=set"
			}
			b.Run(name, func(b *testing.B) {
				eng := core.New(e.New(), core.Threads(1), core.InterUpdate(false))
				defer eng.Close()
				if err := eng.Init(d.Graph.Clone(), tc.q); err != nil {
					b.Fatal(err)
				}
				var delivered uint64
				if consumer {
					eng.OnMatch = func(_ *csm.State, count uint64, _ bool) { delivered += count }
				}
				ctx := context.Background()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.Run(ctx, trip); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				st := eng.Stats()
				if st.Nodes == 0 {
					b.Fatal("the round trip searched nothing")
				}
				if consumer && delivered != st.Positive+st.Negative {
					b.Fatalf("OnMatch saw %d matches, stats report %d", delivered, st.Positive+st.Negative)
				}
				b.ReportMetric(float64(st.TFind.Nanoseconds())/float64(st.Nodes), "ns/node")
				b.ReportMetric(float64(st.Nodes)/float64(b.N), "nodes/op")
			})
		}
	}
}
