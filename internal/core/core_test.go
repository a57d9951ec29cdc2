package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"paracosm/internal/algo/algotest"
	"paracosm/internal/csm"
	"paracosm/internal/graph"
	"paracosm/internal/query"
	"paracosm/internal/refmatch"
	"paracosm/internal/stream"
)

// totalsVsReference computes the reference total (pos, neg) for applying s
// to a clone of g.
func totalsVsReference(g *graph.Graph, q *query.Graph, s stream.Stream, opt refmatch.Options) (pos, neg uint64) {
	h := g.Clone()
	for _, upd := range s {
		p, n := refmatch.Delta(h, q, upd, opt)
		pos += p
		neg += n
		if err := upd.Apply(h); err != nil {
			panic(err)
		}
	}
	return pos, neg
}

// TestParaCOSMMatchesReference is the end-to-end correctness test of the
// whole framework: for every algorithm, across thread counts, with and
// without the inter-update executor, the cumulative incremental matches
// must equal the recompute-and-diff reference.
func TestParaCOSMMatchesReference(t *testing.T) {
	for _, f := range algotest.Factories() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 6; seed++ {
				rng := rand.New(rand.NewSource(seed))
				g0 := algotest.RandomGraph(rng, 28, 60, 2, 2)
				q := algotest.RandomQuery(rng, g0, 4)
				if q == nil {
					continue
				}
				s := algotest.RandomStream(rng, g0, 40, 0.7, 2)
				opt := refmatch.Options{IgnoreELabels: f.IgnoreELabels}
				wantPos, wantNeg := totalsVsReference(g0, q, s, opt)

				for _, threads := range []int{1, 2, 4} {
					for _, inter := range []bool{false, true} {
						g := g0.Clone()
						eng := New(f.New(), Threads(threads), InterUpdate(inter), SplitDepth(3))
						if err := eng.Init(g, q); err != nil {
							t.Fatal(err)
						}
						st, err := eng.Run(context.Background(), s)
						if err != nil {
							t.Fatalf("seed %d threads %d inter %v: %v", seed, threads, inter, err)
						}
						if st.Positive != wantPos || st.Negative != wantNeg {
							t.Fatalf("seed %d threads %d inter %v: totals (+%d,-%d), reference (+%d,-%d)",
								seed, threads, inter, st.Positive, st.Negative, wantPos, wantNeg)
						}
						if st.Updates != len(s) {
							t.Fatalf("seed %d: processed %d updates, want %d", seed, st.Updates, len(s))
						}
					}
				}
			}
		})
	}
}

// TestBatchExecutorSkippingADSIsSound verifies the core claim behind the
// stage-3 skip: after a batched run, incrementally maintained auxiliary
// structures still equal a from-scratch rebuild.
func TestBatchExecutorSkippingADSIsSound(t *testing.T) {
	for _, f := range algotest.Factories() {
		algo := f.New()
		if _, ok := algo.(csm.Rebuilder); !ok {
			continue
		}
		f := f
		t.Run(f.Name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(50); seed < 56; seed++ {
				rng := rand.New(rand.NewSource(seed))
				g := algotest.RandomGraph(rng, 30, 65, 3, 2)
				q := algotest.RandomQuery(rng, g, 4)
				if q == nil {
					continue
				}
				s := algotest.RandomStream(rng, g, 35, 0.65, 2)
				algo := f.New()
				eng := New(algo, Threads(2), InterUpdate(true))
				if err := eng.Init(g, q); err != nil {
					t.Fatal(err)
				}
				if _, err := eng.Run(context.Background(), s); err != nil {
					t.Fatal(err)
				}
				if !algo.(csm.Rebuilder).RebuildADS() {
					t.Fatalf("seed %d: ADS inconsistent after batched run with stage-3 skips", seed)
				}
			}
		})
	}
}

// figure6Algo is a scripted algorithm reproducing the Figure 6 scenario:
// updates are safe or unsafe by fiat.
type figure6Algo struct {
	unsafeEdges map[[2]graph.VertexID]bool
	processed   []stream.Update // updates that reached UpdateADS (unsafe/full path)
}

func (a *figure6Algo) Name() string                           { return "fig6" }
func (a *figure6Algo) Build(*graph.Graph, *query.Graph) error { return nil }
func (a *figure6Algo) UpdateADS(u stream.Update)              { a.processed = append(a.processed, u) }
func (a *figure6Algo) AffectsADS(u stream.Update) bool {
	return a.unsafeEdges[[2]graph.VertexID{u.U, u.V}]
}
func (a *figure6Algo) Roots(stream.Update, func(csm.State)) {}
func (a *figure6Algo) Expand(*csm.State, func(csm.State))   {}
func (a *figure6Algo) Terminal(*csm.State) (uint64, bool)   { return 0, true }

// TestFigure6Deferral runs the paper's Figure 6 walkthrough — updates 1-3
// safe, 4 unsafe, 5 safe — through the per-update pipeline, which has no
// deferral left: each update is classified when it runs, so update 4 alone
// takes the full path, update 5 is applied as safe right behind it, and
// every update commits in stream order.
func TestFigure6Deferral(t *testing.T) {
	g := graph.New(8)
	for i := 0; i < 8; i++ {
		g.AddVertex(0)
	}
	q := query.MustNew([]graph.Label{0, 0})
	q.MustAddEdge(0, 1, 0)
	if err := q.Finalize(); err != nil {
		t.Fatal(err)
	}
	algo := &figure6Algo{unsafeEdges: map[[2]graph.VertexID]bool{{0, 4}: true}}
	var committed []graph.VertexID
	eng := New(algo, Threads(2), InterUpdate(true), WithOnDelta(func(upd stream.Update, _ csm.Delta, _ bool) {
		committed = append(committed, upd.V)
	}))
	if err := eng.Init(g, q); err != nil {
		t.Fatal(err)
	}
	s := stream.Stream{
		{Op: stream.AddEdge, U: 0, V: 1},
		{Op: stream.AddEdge, U: 0, V: 2},
		{Op: stream.AddEdge, U: 0, V: 3},
		{Op: stream.AddEdge, U: 0, V: 4}, // unsafe
		{Op: stream.AddEdge, U: 0, V: 5},
	}
	st, err := eng.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(committed) != "[1 2 3 4 5]" {
		t.Fatalf("commit order %v, want stream order", committed)
	}
	if st.SafeUpdates != 4 || st.UnsafeUpdates != 1 {
		t.Fatalf("safe/unsafe = %d/%d, want 4/1", st.SafeUpdates, st.UnsafeUpdates)
	}
	// Only the unsafe update went down the full path.
	if len(algo.processed) != 1 || algo.processed[0].V != 4 {
		t.Fatalf("full-path updates = %v, want just (0,4)", algo.processed)
	}
	// All five edges are present regardless of path.
	for v := graph.VertexID(1); v <= 5; v++ {
		if !g.HasEdge(0, v) {
			t.Fatalf("edge (0,%d) missing after run", v)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := algotest.RandomGraph(rng, 25, 55, 3, 1)
	q := algotest.RandomQuery(rng, g, 4)
	if q == nil {
		t.Skip("no query")
	}
	s := algotest.RandomStream(rng, g, 30, 0.7, 1)
	eng := New(algotest.Factories()[4].New(), Threads(2), InterUpdate(true)) // Symbi
	if err := eng.Init(g, q); err != nil {
		t.Fatal(err)
	}
	st, err := eng.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if st.SafeUpdates+st.UnsafeUpdates != st.Updates {
		t.Fatalf("safe %d + unsafe %d != updates %d", st.SafeUpdates, st.UnsafeUpdates, st.Updates)
	}
	if st.SafeByLabel+st.SafeByDegree+st.SafeByADS+st.VertexUpdates != st.SafeUpdates {
		t.Fatalf("stage counters %d+%d+%d+%d != safe %d",
			st.SafeByLabel, st.SafeByDegree, st.SafeByADS, st.VertexUpdates, st.SafeUpdates)
	}
	if r := st.SafeRatio(); r < 0 || r > 1 {
		t.Fatalf("SafeRatio = %v", r)
	}
}

func TestDeadlineAborts(t *testing.T) {
	// A dense single-label graph with a clique query explodes the search
	// space enough that a microsecond deadline always trips.
	rng := rand.New(rand.NewSource(9))
	g := algotest.RandomGraph(rng, 60, 900, 1, 1)
	q := query.MustNew([]graph.Label{0, 0, 0, 0, 0})
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			q.MustAddEdge(query.VertexID(i), query.VertexID(j), 0)
		}
	}
	if err := q.Finalize(); err != nil {
		t.Fatal(err)
	}
	eng := New(algotest.Factories()[2].New(), Threads(2), InterUpdate(false)) // GraphFlow
	if err := eng.Init(g, q); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(time.Microsecond))
	defer cancel()
	var sawTimeout bool
	for v := graph.VertexID(0); v < 30; v++ {
		u, w := v, (v+31)%60
		if g.HasEdge(u, w) {
			continue
		}
		_, err := eng.ProcessUpdate(ctx, stream.Update{Op: stream.AddEdge, U: u, V: w})
		if err == csm.ErrDeadline {
			sawTimeout = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !sawTimeout {
		t.Skip("workload finished under deadline on this machine")
	}
}

func TestThreadBusyRecorded(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := algotest.RandomGraph(rng, 40, 200, 1, 1)
	q := algotest.RandomQuery(rng, g, 4)
	if q == nil {
		t.Skip("no query")
	}
	eng := New(algotest.Factories()[2].New(), Threads(3), InterUpdate(false), EscalateNodes(1))
	if err := eng.Init(g, q); err != nil {
		t.Fatal(err)
	}
	s := algotest.RandomStream(rng, g, 15, 1.0, 1)
	if _, err := eng.Run(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if len(st.ThreadBusy) == 0 {
		t.Fatal("no per-thread busy times recorded")
	}
}

func TestConfigNormalization(t *testing.T) {
	eng := New(algotest.Factories()[2].New(), Threads(0), SplitDepth(-3))
	cfg := eng.Config()
	if cfg.Threads != 1 || cfg.SplitDepth != 0 || cfg.EscalateNodes != 4096 {
		t.Fatalf("normalized config = %+v", cfg)
	}
	eng2 := New(algotest.Factories()[2].New())
	if eng2.Config().Threads < 1 {
		t.Fatalf("default config = %+v", eng2.Config())
	}
}

func TestResetStats(t *testing.T) {
	eng := New(algotest.Factories()[2].New(), Threads(1))
	rng := rand.New(rand.NewSource(21))
	g := algotest.RandomGraph(rng, 20, 40, 2, 1)
	q := algotest.RandomQuery(rng, g, 3)
	if q == nil {
		t.Skip("no query")
	}
	if err := eng.Init(g, q); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), algotest.RandomStream(rng, g, 10, 0.8, 1)); err != nil {
		t.Fatal(err)
	}
	if eng.Stats().Updates == 0 {
		t.Fatal("no updates recorded")
	}
	eng.ResetStats()
	if eng.Stats().Updates != 0 {
		t.Fatal("ResetStats did not clear")
	}
}

// TestStatsAddCoversEveryField sets every integer and duration field of a
// Stats, Window included, to 1 and adds it twice into a zero value: each
// must read 2 (Window.MaxGroup, a maximum, reads 1). A counter added to
// Stats but not to Add fails here.
func TestStatsAddCoversEveryField(t *testing.T) {
	var one Stats
	var set func(v reflect.Value)
	set = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.Int, reflect.Int64:
				f.SetInt(1)
			case reflect.Uint64:
				f.SetUint(1)
			case reflect.Struct:
				set(f)
			}
		}
	}
	set(reflect.ValueOf(&one).Elem())
	one.ThreadBusy = []time.Duration{1}

	var sum Stats
	sum.Add(one)
	sum.Add(one)
	var check func(v reflect.Value, path string)
	check = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			name := path + v.Type().Field(i).Name
			want := int64(2)
			if name == "Window.MaxGroup" {
				want = 1
			}
			switch f := v.Field(i); f.Kind() {
			case reflect.Int, reflect.Int64:
				if f.Int() != want {
					t.Errorf("%s = %d after two Adds of 1, want %d", name, f.Int(), want)
				}
			case reflect.Uint64:
				if f.Uint() != uint64(want) {
					t.Errorf("%s = %d after two Adds of 1, want %d", name, f.Uint(), want)
				}
			case reflect.Struct:
				check(f, name+".")
			case reflect.Slice:
				if name != "ThreadBusy" {
					t.Errorf("%s: unexpected slice field; teach this test how Add merges it", name)
				}
			default:
				t.Errorf("%s: unexpected %v field; teach this test how Add merges it", name, f.Kind())
			}
		}
	}
	check(reflect.ValueOf(sum), "")
	if len(sum.ThreadBusy) != 1 || sum.ThreadBusy[0] != 2 {
		t.Errorf("ThreadBusy = %v after two Adds of [1], want [2]", sum.ThreadBusy)
	}
}
