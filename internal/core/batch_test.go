package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"paracosm/internal/algo/algotest"
	"paracosm/internal/algo/graphflow"
	"paracosm/internal/csm"
	"paracosm/internal/graph"
	"paracosm/internal/obs"
	"paracosm/internal/query"
	"paracosm/internal/refmatch"
	"paracosm/internal/stream"
)

// pathFixture: query path a(0)-b(1)-c(0) where deg_Q(b)=2, over isolated
// data vertices v0(0), v1(1), v2(0).
func pathFixture(t *testing.T) (*Engine, *graph.Graph) {
	t.Helper()
	g := graph.New(3)
	g.AddVertex(0)
	g.AddVertex(1)
	g.AddVertex(0)
	q := query.MustNew([]graph.Label{0, 1, 0})
	q.MustAddEdge(0, 1, 0)
	q.MustAddEdge(1, 2, 0)
	if err := q.Finalize(); err != nil {
		t.Fatal(err)
	}
	eng := New(graphflow.New(), Threads(1), InterUpdate(true))
	if err := eng.Init(g, q); err != nil {
		t.Fatal(err)
	}
	return eng, g
}

// TestReclassification: both insertions of the path are degree-safe
// against the initial graph, but applying the first raises v1's degree, so
// the second — classified when it runs, against the current state — is
// unsafe. A verdict taken before the first applied would silently miss the
// completed path match; classifying per update needs no re-validation.
func TestReclassification(t *testing.T) {
	eng, g := pathFixture(t)
	s := stream.Stream{
		{Op: stream.AddEdge, U: 0, V: 1},
		{Op: stream.AddEdge, U: 1, V: 2},
	}
	st, err := eng.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	// The path a-b-c with labels (0,1,0) matches twice (two orientations).
	if st.Positive != 2 {
		t.Fatalf("Positive = %d, want 2", st.Positive)
	}
	if st.SafeByDegree != 1 || st.UnsafeUpdates != 1 || st.Reclassified != 0 {
		t.Fatalf("safe:degree/unsafe/reclassified = %d/%d/%d, want 1/1/0", st.SafeByDegree, st.UnsafeUpdates, st.Reclassified)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) {
		t.Fatal("edges not applied")
	}
}

// TestSafeDeletionSkipsSearch: deleting a label-irrelevant edge must be
// classified safe and applied without enumeration.
func TestSafeDeletionSkipsSearch(t *testing.T) {
	eng, g := pathFixture(t)
	// Add two same-label vertices and an edge between them; (0,0) matches
	// no query edge.
	v3 := g.AddVertex(0)
	v4 := g.AddVertex(0)
	g.AddEdge(v3, v4, 0)
	st, err := eng.Run(context.Background(), stream.Stream{
		{Op: stream.DeleteEdge, U: v3, V: v4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.SafeUpdates != 1 || st.SafeByLabel != 1 {
		t.Fatalf("stats = %+v, want one label-safe deletion", st)
	}
	if st.Nodes != 0 {
		t.Fatalf("search ran for a safe deletion (%d nodes)", st.Nodes)
	}
	if g.HasEdge(v3, v4) {
		t.Fatal("safe deletion not applied")
	}
}

// TestBatchBoundaryDeferralProcessesEverything: a long alternating
// safe/unsafe stream must apply every update exactly once, each under its
// own verdict.
func TestBatchBoundaryDeferralProcessesEverything(t *testing.T) {
	g := graph.New(40)
	for i := 0; i < 40; i++ {
		g.AddVertex(graph.Label(i % 2))
	}
	q := query.MustNew([]graph.Label{0, 1})
	q.MustAddEdge(0, 1, 0)
	if err := q.Finalize(); err != nil {
		t.Fatal(err)
	}
	eng := New(graphflow.New(), Threads(2), InterUpdate(true))
	if err := eng.Init(g, q); err != nil {
		t.Fatal(err)
	}
	var s stream.Stream
	want := 0
	for i := 0; i < 30; i += 2 {
		u, v := graph.VertexID(i), graph.VertexID(i+1)
		// (even,odd) labels (0,1): unsafe, creates one match per edge...
		s = append(s, stream.Update{Op: stream.AddEdge, U: u, V: v})
		want++
		// (even,even): label-safe.
		if i+2 < 40 {
			s = append(s, stream.Update{Op: stream.AddEdge, U: u, V: graph.VertexID(i + 2)})
		}
	}
	st, err := eng.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if st.Updates != len(s) {
		t.Fatalf("processed %d of %d updates", st.Updates, len(s))
	}
	if int(st.Positive) != want {
		t.Fatalf("Positive = %d, want %d", st.Positive, want)
	}
	if st.UnsafeUpdates != want || st.SafeByLabel != len(s)-want {
		t.Fatalf("unsafe/safe:label = %d/%d, want %d/%d", st.UnsafeUpdates, st.SafeByLabel, want, len(s)-want)
	}
	// Every edge must exist exactly once.
	for i, upd := range s {
		if !g.HasEdge(upd.U, upd.V) {
			t.Fatalf("update %d (%v) not applied", i, upd)
		}
	}
}

// TestVertexOpsInBatches: vertex updates flowing through the classifier
// are counted as safe and keep indexes growable.
func TestVertexOpsInBatches(t *testing.T) {
	eng, g := pathFixture(t)
	st, err := eng.Run(context.Background(), stream.Stream{
		{Op: stream.AddVertex, VLabel: 1},
		{Op: stream.AddEdge, U: 0, V: 1},
		{Op: stream.AddVertex, VLabel: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.VertexUpdates != 2 {
		t.Fatalf("VertexUpdates = %d, want 2", st.VertexUpdates)
	}
	if g.NumVertices() != 5 {
		t.Fatalf("NumVertices = %d, want 5", g.NumVertices())
	}
}

// TestInterUpdateDisabledProcessesFully: with the classifier off every
// update takes the full path, so the safe/unsafe counters stay zero.
func TestInterUpdateDisabledProcessesFully(t *testing.T) {
	g := graph.New(4)
	for i := 0; i < 4; i++ {
		g.AddVertex(graph.Label(i % 2))
	}
	q := query.MustNew([]graph.Label{0, 1})
	q.MustAddEdge(0, 1, 0)
	if err := q.Finalize(); err != nil {
		t.Fatal(err)
	}
	eng := New(graphflow.New(), Threads(1), InterUpdate(false))
	if err := eng.Init(g, q); err != nil {
		t.Fatal(err)
	}
	st, err := eng.Run(context.Background(), stream.Stream{
		{Op: stream.AddEdge, U: 0, V: 2}, // (0,0): would be label-safe
		{Op: stream.AddEdge, U: 0, V: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.SafeUpdates != 0 || st.UnsafeUpdates != 0 {
		t.Fatalf("stats = %+v, want no classifier activity", st)
	}
	if st.Updates != 2 {
		t.Fatalf("Updates = %d", st.Updates)
	}
}

// TestProcessUpdateIsRunOfOne: a standalone engine is the lockstep driver
// over a query set of one, so three sides must agree with refmatch update
// by update — one ProcessUpdate per update (under any classifier, thread
// and window setting, a window of one coalescing nothing), Engine.Run over
// the same stream without a window, and a MultiEngine holding that one
// query — and on every counter. ProcessUpdate returns every update's ΔM;
// Run's and the MultiEngine's OnDelta fire for the updates the dispatch
// index lets through, and every update they leave out has an empty ΔM.
// Traced, the standalone sides also show every update classified exactly
// once: one event per visited update, and per class as many events as the
// Stats counter it feeds, less the label-safe updates booked in bulk.
func TestProcessUpdateIsRunOfOne(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := algotest.RandomGraph(rng, 30, 160, 2, 2)
	s := skewedStream(rng, g, 120, 0.6) // vertex ops included
	queries := []*query.Graph{pathQuery(t, 0, 1, 0), algotest.RandomQuery(rng, g, 4), pathQuery(t, 0, 0)}
	// ref[ignoreELabels][qi][i] is refmatch's ΔM of update i.
	var ref [2][][][2]uint64
	for ig := range ref {
		for _, q := range queries {
			h := g.Clone()
			var per [][2]uint64
			for _, upd := range s {
				pos, neg := refmatch.Delta(h, q, upd, refmatch.Options{IgnoreELabels: ig == 1})
				per = append(per, [2]uint64{pos, neg})
				if err := upd.Apply(h); err != nil {
					t.Fatal(err)
				}
			}
			ref[ig] = append(ref[ig], per)
		}
	}
	threadOpts := [][]Option{{Threads(1)}, {Threads(2), EscalateNodes(1)}}
	for _, f := range algotest.Factories() {
		t.Run(f.Name, func(t *testing.T) {
			var skipped uint64
			ig := 0
			if f.IgnoreELabels {
				ig = 1
			}
			for qi, q := range queries {
				for _, inter := range []bool{false, true} {
					for ti, th := range threadOpts {
						for _, w := range []int{0, 8} {
							name := fmt.Sprintf("q%d inter=%v threads#%d window=%d", qi, inter, ti, w)
							opts := append([]Option{InterUpdate(inter)}, th...)
							st, sk := checkRunOfOne(t, name, f, g, q, s, ref[ig][qi], opts, w)
							if inter && st.SafeUpdates == 0 {
								t.Fatalf("%s: the classifier proved nothing safe; the fixture tests nothing", name)
							}
							skipped += sk
						}
					}
				}
			}
			if _, ok := f.New().(csm.LabelDispatch); ok && skipped == 0 {
				t.Fatal("the dispatch index skipped no update; the fixture does not test the skipping")
			}
		})
	}
}

// checkRunOfOne runs s through one ProcessUpdate per update (opts plus
// Window(window)), through Run (opts, no window) and through a MultiEngine
// holding q alone (opts), on fresh engines, compares each with want
// update by update and their counters with each other, and returns Run's
// Stats and how many updates its dispatch index skipped.
func checkRunOfOne(t *testing.T, name string, f algotest.Factory, g *graph.Graph, q *query.Graph, s stream.Stream, want [][2]uint64, opts []Option, window int) (Stats, uint64) {
	t.Helper()
	opts = opts[:len(opts):len(opts)] // each append below copies
	wantSeq := make([]deltaRec, len(s))
	for i, upd := range s {
		wantSeq[i] = deltaRec{upd, want[i][0], want[i][1]}
	}

	oneTr := obs.NewTracer(2 * len(s))
	eng := New(f.New(), append(opts, Window(window), WithTracer(oneTr))...)
	defer eng.Close()
	if err := eng.Init(g.Clone(), q); err != nil {
		t.Fatal(err)
	}
	for i, upd := range s {
		d, err := eng.ProcessUpdate(context.Background(), upd)
		if err != nil {
			t.Fatalf("%s: update %d (%v): %v", name, i, upd, err)
		}
		if got := (deltaRec{upd, d.Positive, d.Negative}); got != wantSeq[i] {
			t.Fatalf("%s: update %d (%v): ProcessUpdate (+%d,-%d), refmatch (+%d,-%d)",
				name, i, upd, got.pos, got.neg, want[i][0], want[i][1])
		}
	}
	oneSt := eng.Stats()
	checkClassifiedOnce(t, name+" ProcessUpdate", oneTr, oneSt, eng.DispatchCounters().Skipped)

	runTr := obs.NewTracer(2 * len(s))
	var runSeq []deltaRec
	runEng := New(f.New(), append(opts, WithTracer(runTr), WithOnDelta(func(upd stream.Update, d csm.Delta, _ bool) {
		runSeq = append(runSeq, deltaRec{upd, d.Positive, d.Negative})
	}))...)
	defer runEng.Close()
	if err := runEng.Init(g.Clone(), q); err != nil {
		t.Fatal(err)
	}
	runSt, err := runEng.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	checkSharedDeltas(t, name+" Run", runSeq, wantSeq)
	checkClassifiedOnce(t, name+" Run", runTr, runSt, runEng.DispatchCounters().Skipped)

	m := NewMulti(opts...)
	defer m.Close()
	multi := newDeltaLog()
	m.OnDelta = func(_ string, upd stream.Update, d csm.Delta, _ bool) { multi.add("q", upd, d) }
	m.Register("q", f.New(), q)
	if err := m.Init(g); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	checkSharedDeltas(t, name+" MultiEngine", multi.seqs["q"], wantSeq)
	multiSt := m.Stats()["q"]

	if countsOf(oneSt) != countsOf(runSt) || countsOf(multiSt) != countsOf(runSt) ||
		oneSt.Escalations != runSt.Escalations || multiSt.Escalations != runSt.Escalations ||
		oneSt.Reclassified != 0 || runSt.Reclassified != 0 || oneSt.Window != runSt.Window {
		t.Fatalf("%s: ProcessUpdate stats %+v\n\tRun stats %+v\n\tMultiEngine stats %+v", name, oneSt, runSt, multiSt)
	}
	return runSt, runEng.DispatchCounters().Skipped
}

// checkClassifiedOnce checks one run's trace against its Stats: one update
// event per update the driver visited the engine with, one stage event per
// update, and each verdict's events equal to its counter — less, for
// safe:label, the skipped updates booked in bulk — so every visited update
// was classified (or, with the classifier off, passed it by) once.
func checkClassifiedOnce(t *testing.T, name string, tr *obs.Tracer, st Stats, skipped uint64) {
	t.Helper()
	evs, stages := updateEvents(tr)
	byClass := map[string]int{}
	for _, ev := range evs {
		byClass[ev.Class]++
	}
	want := map[string]int{
		obs.ClassSafeLabel:  st.SafeByLabel - int(skipped),
		obs.ClassSafeDegree: st.SafeByDegree,
		obs.ClassSafeADS:    st.SafeByADS,
		obs.ClassVertex:     st.VertexUpdates,
		obs.ClassUnsafe:     st.UnsafeUpdates,
		obs.ClassDirect:     st.Updates - st.SafeUpdates - st.UnsafeUpdates,
	}
	if len(evs)+int(skipped) != st.Updates || stages != st.Updates {
		t.Fatalf("%s: %d update events + %d skipped, %d stage events, %d updates", name, len(evs), skipped, stages, st.Updates)
	}
	for class, n := range want {
		if byClass[class] != n {
			t.Fatalf("%s: %d %q events, stats say %d (%v)", name, byClass[class], class, n, byClass)
		}
	}
}
