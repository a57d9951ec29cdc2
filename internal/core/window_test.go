package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"paracosm/internal/algo/algotest"
	"paracosm/internal/csm"
	"paracosm/internal/graph"
	"paracosm/internal/query"
	"paracosm/internal/stream"
)

// winDeltaRec is one OnDelta observation tagged with its update, so
// windowed and oracle sequences can be compared update-for-update.
type winDeltaRec struct {
	op       stream.Op
	u, v     graph.VertexID
	pos, neg uint64
	timeout  bool
}

// runWithDeltas runs one engine over s and returns its stats, delta
// sequence, and the post-run graph (the engine mutates the graph it was
// initialized with).
func runWithDeltas(t *testing.T, algo csm.Algorithm, g *graph.Graph, q *query.Graph, s stream.Stream, opts ...Option) (Stats, []winDeltaRec, *graph.Graph) {
	t.Helper()
	var seq []winDeltaRec
	opts = append(append([]Option(nil), opts...), WithOnDelta(func(upd stream.Update, d csm.Delta, timeout bool) {
		seq = append(seq, winDeltaRec{upd.Op, upd.U, upd.V, d.Positive, d.Negative, timeout})
	}))
	eng := New(algo, opts...)
	defer eng.Close()
	if err := eng.Init(g, q); err != nil {
		t.Fatal(err)
	}
	st, err := eng.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	return st, seq, g
}

// coalesceChunks folds s into the oracle stream the windowed executor
// commits: each window-sized chunk coalesced independently, using the
// same Coalescer the engine does.
func coalesceChunks(s stream.Stream, window int) stream.Stream {
	c := stream.NewCoalescer()
	var out stream.Stream
	for off := 0; off < len(s); off += window {
		hi := off + window
		if hi > len(s) {
			hi = len(s)
		}
		out, _ = c.Coalesce(out, s[off:hi])
	}
	return out
}

// graphFingerprint summarizes a graph's live structure for equality
// checks: live vertex labels plus every sorted adjacency list.
func graphFingerprint(g *graph.Graph) string {
	out := make([]string, 0, g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		if !g.Alive(graph.VertexID(v)) {
			continue
		}
		ns := append([]graph.Neighbor(nil), g.Neighbors(graph.VertexID(v))...)
		sort.Slice(ns, func(i, j int) bool { return ns[i].ID < ns[j].ID })
		out = append(out, fmt.Sprintf("%d/%d:%v", v, g.Label(graph.VertexID(v)), ns))
	}
	return fmt.Sprint(out)
}

// checkWindowedOracle runs s through a windowed engine and checks it
// against the sequential oracle: the delta sequence must equal a
// per-update (v1) run over the coalesced stream, and the final graph and
// net totals must equal a v1 run over the raw stream (coalescing elides
// transient within-window matches, so only the NET totals are
// raw-comparable — see DESIGN.md §15).
func checkWindowedOracle(t *testing.T, f algotest.Factory, g *graph.Graph, q *query.Graph, s stream.Stream, window int, extra ...Option) Stats {
	t.Helper()
	opts := append([]Option{Threads(4), BatchSize(8)}, extra...)

	oracleStream := coalesceChunks(s, window)
	_, wantSeq, wantG := runWithDeltas(t, f.New(), g.Clone(), q, oracleStream, opts...)
	rawSt, _, rawG := runWithDeltas(t, f.New(), g.Clone(), q, s, opts...)

	winOpts := append(append([]Option(nil), opts...), Window(window))
	gotSt, gotSeq, gotG := runWithDeltas(t, f.New(), g.Clone(), q, s, winOpts...)

	if len(gotSeq) != len(wantSeq) {
		t.Fatalf("%s w=%d: windowed emitted %d deltas, oracle %d", f.Name, window, len(gotSeq), len(wantSeq))
	}
	for i := range gotSeq {
		if gotSeq[i] != wantSeq[i] {
			t.Fatalf("%s w=%d: delta %d: windowed %+v, oracle %+v", f.Name, window, i, gotSeq[i], wantSeq[i])
		}
	}
	if got, want := graphFingerprint(gotG), graphFingerprint(wantG); got != want {
		t.Fatalf("%s w=%d: windowed final graph diverges from coalesced oracle", f.Name, window)
	}
	if got, want := graphFingerprint(gotG), graphFingerprint(rawG); got != want {
		t.Fatalf("%s w=%d: windowed final graph diverges from raw replay", f.Name, window)
	}
	gotNet := int64(gotSt.Positive) - int64(gotSt.Negative)
	rawNet := int64(rawSt.Positive) - int64(rawSt.Negative)
	if gotNet != rawNet {
		t.Fatalf("%s w=%d: windowed net matches %d, raw replay %d", f.Name, window, gotNet, rawNet)
	}
	if gotSt.Window.Windows == 0 {
		t.Fatalf("%s w=%d: windowed run recorded no windows", f.Name, window)
	}
	return gotSt
}

// TestWindowedOracleRandom is the core equality proof for the
// batch-dynamic executor: random mixed streams, several window sizes,
// two backends. Run under -race this also exercises the concurrent wave
// find phases.
func TestWindowedOracleRandom(t *testing.T) {
	for _, fi := range []int{2, 5} { // GraphFlow, Symbi
		f := algotest.Factories()[fi]
		for _, seed := range []int64{7, 19} {
			rng := rand.New(rand.NewSource(seed))
			g := algotest.RandomGraph(rng, 30, 70, 2, 1)
			q := algotest.RandomQuery(rng, g, 3)
			if q == nil {
				t.Skip("no query")
			}
			s := algotest.RandomStream(rng, g, 80, 0.6, 1)
			for _, w := range []int{4, 16, 64} {
				checkWindowedOracle(t, f, g, q, s, w)
			}
		}
	}
}

// TestWindowedOracleAnnihilation: a window stuffed with exact
// insert/delete pairs must annihilate them (no enumeration, no deltas
// for the dropped pairs) and still match the sequential oracle.
func TestWindowedOracleAnnihilation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := algotest.RandomGraph(rng, 24, 40, 2, 1)
	q := algotest.RandomQuery(rng, g, 3)
	if q == nil {
		t.Skip("no query")
	}
	// Interleave churn pairs (+e x,y then -e x,y on fresh vertex pairs)
	// with a few real updates from the random generator.
	real := algotest.RandomStream(rng, g, 10, 0.7, 1)
	var s stream.Stream
	for i, upd := range real {
		u := graph.VertexID(rng.Intn(g.NumVertices()))
		v := graph.VertexID(rng.Intn(g.NumVertices()))
		if u != v && !g.HasEdge(u, v) {
			s = append(s,
				stream.Update{Op: stream.AddEdge, U: u, V: v},
				stream.Update{Op: stream.DeleteEdge, U: u, V: v})
		}
		_ = i
		s = append(s, upd)
	}
	st := checkWindowedOracle(t, algotest.Factories()[2], g, q, s, 32)
	if st.Window.Annihilated == 0 {
		t.Fatalf("expected annihilated pairs, got %+v", st.Window)
	}
}

// TestWindowedOracleVertexOps: vertex ops mid-window are barriers — the
// coalescer may not fold across them and the scheduler must commit them
// alone — and the result still matches the oracle.
func TestWindowedOracleVertexOps(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := algotest.RandomGraph(rng, 24, 50, 2, 1)
	q := algotest.RandomQuery(rng, g, 3)
	if q == nil {
		t.Skip("no query")
	}
	edges := algotest.RandomStream(rng, g, 30, 0.6, 1)
	var s stream.Stream
	for i, upd := range edges {
		s = append(s, upd)
		if i%7 == 3 {
			s = append(s, stream.Update{Op: stream.AddVertex, VLabel: graph.Label(i % 2)})
		}
	}
	checkWindowedOracle(t, algotest.Factories()[2], g, q, s, 16)
}

// TestWindowedOracleFootprintCapFallback: FootprintCap(1) forces every
// footprint to overflow, so every update must take the serial fallback —
// and the run must still match the oracle exactly.
func TestWindowedOracleFootprintCapFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := algotest.RandomGraph(rng, 24, 50, 2, 1)
	q := algotest.RandomQuery(rng, g, 3)
	if q == nil {
		t.Skip("no query")
	}
	s := algotest.RandomStream(rng, g, 50, 0.6, 1)
	st := checkWindowedOracle(t, algotest.Factories()[2], g, q, s, 16, FootprintCap(1))
	if st.Window.UnsafeParallel != 0 {
		t.Fatalf("cap 1 must force serial commits, got %+v", st.Window)
	}
	if st.Window.FallbackSerial == 0 {
		t.Fatalf("no serial fallbacks recorded: %+v", st.Window)
	}
}

// TestMultiWindowedOracle proves the shared-graph windowed driver
// equivalent to per-query private replays over the coalesced stream:
// every query must observe exactly the deltas of a v1 run over its own
// clone, and the driver counters must record the windows.
func TestMultiWindowedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := algotest.RandomGraph(rng, 28, 60, 2, 1)
	qA := algotest.RandomQuery(rng, g, 3)
	qB := algotest.RandomQuery(rng, g, 4)
	if qA == nil || qB == nil {
		t.Skip("no queries")
	}
	s := algotest.RandomStream(rng, g, 64, 0.6, 1)
	const window = 16
	fGF := algotest.Factories()[2]
	fSY := algotest.Factories()[5]
	opts := []Option{Threads(2), BatchSize(4), Window(window)}

	got := map[string][]winDeltaRec{}
	m := NewMulti(opts...)
	defer m.Close()
	var gotMu sync.Mutex // the driver emits different queries' deltas concurrently
	m.OnDelta = func(name string, upd stream.Update, d csm.Delta, timeout bool) {
		gotMu.Lock()
		defer gotMu.Unlock()
		got[name] = append(got[name], winDeltaRec{upd.Op, upd.U, upd.V, d.Positive, d.Negative, timeout})
	}
	m.Register("A", fGF.New(), qA)
	m.Register("B", fSY.New(), qB)
	if err := m.Init(g); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(context.Background(), s); err != nil {
		t.Fatal(err)
	}

	oracle := coalesceChunks(s, window)
	refs := []struct {
		name string
		algo csm.Algorithm
		q    *query.Graph
	}{{"A", fGF.New(), qA}, {"B", fSY.New(), qB}}
	for _, ref := range refs {
		_, wantSeq, _ := runWithDeltas(t, ref.algo, g.Clone(), ref.q, oracle, Threads(2), BatchSize(4))
		if len(got[ref.name]) != len(wantSeq) {
			t.Fatalf("%s: shared windowed emitted %d deltas, oracle %d", ref.name, len(got[ref.name]), len(wantSeq))
		}
		for i := range wantSeq {
			if got[ref.name][i] != wantSeq[i] {
				t.Fatalf("%s: delta %d: shared %+v, oracle %+v", ref.name, i, got[ref.name][i], wantSeq[i])
			}
		}
	}
	wc := m.WindowCounters()
	if wc.Windows != (len(s)+window-1)/window {
		t.Fatalf("driver counted %d windows, want %d", wc.Windows, (len(s)+window-1)/window)
	}
	if wc.Groups == 0 {
		t.Fatalf("driver recorded no groups: %+v", wc)
	}
}

// disjointComponentsFixture builds K disconnected path components
// (labels 0-1-0, pre-edge v0-v1) and a stream whose inserts complete the
// path in distinct components — pairwise-disjoint conflict footprints by
// construction, so the scheduler must form multi-update waves.
func disjointComponentsFixture(k int) (*graph.Graph, *query.Graph, stream.Stream) {
	g := graph.New(3 * k)
	for i := 0; i < k; i++ {
		g.AddVertex(0)
		g.AddVertex(1)
		g.AddVertex(0)
		g.AddEdge(graph.VertexID(3*i), graph.VertexID(3*i+1), 0)
	}
	q := query.MustNew([]graph.Label{0, 1, 0})
	q.MustAddEdge(0, 1, 0)
	q.MustAddEdge(1, 2, 0)
	if err := q.Finalize(); err != nil {
		panic(err)
	}
	var s stream.Stream
	for i := 0; i < k; i++ {
		s = append(s, stream.Update{Op: stream.AddEdge, U: graph.VertexID(3*i + 1), V: graph.VertexID(3*i + 2)})
	}
	for i := 0; i < k; i++ {
		s = append(s, stream.Update{Op: stream.DeleteEdge, U: graph.VertexID(3*i + 1), V: graph.VertexID(3*i + 2)})
	}
	return g, q, s
}

// TestWindowedOracleDisjointComponents guards the parallel wave path
// itself: with disconnected components the footprints cannot conflict,
// so both the insert window and the delete window must commit as
// multi-update waves (under -race this exercises the concurrent
// find_pos/find_neg phases), and the result must still match the
// sequential oracle.
func TestWindowedOracleDisjointComponents(t *testing.T) {
	const k = 12
	for _, fi := range []int{2, 5} { // GraphFlow, Symbi
		f := algotest.Factories()[fi]
		g, q, s := disjointComponentsFixture(k)
		st := checkWindowedOracle(t, f, g, q, s, k)
		if st.Window.UnsafeParallel == 0 {
			t.Fatalf("%s: disjoint components formed no parallel wave: %+v", f.Name, st.Window)
		}
		if st.Window.MaxGroup < 2 {
			t.Fatalf("%s: max group %d, want >= 2: %+v", f.Name, st.Window.MaxGroup, st.Window)
		}
	}
}

// TestMultiWindowedDisjointComponents is the shared-driver analogue:
// two standing queries over the disjoint-component graph must still
// commit whole independent sets per barrier (MaxGroup > 1) and match
// their private sequential replays.
func TestMultiWindowedDisjointComponents(t *testing.T) {
	const k = 10
	g, q, s := disjointComponentsFixture(k)
	fGF := algotest.Factories()[2]
	fSY := algotest.Factories()[5]

	got := map[string][]winDeltaRec{}
	m := NewMulti(Threads(2), BatchSize(4), Window(k))
	defer m.Close()
	var gotMu sync.Mutex // the driver emits different queries' deltas concurrently
	m.OnDelta = func(name string, upd stream.Update, d csm.Delta, timeout bool) {
		gotMu.Lock()
		defer gotMu.Unlock()
		got[name] = append(got[name], winDeltaRec{upd.Op, upd.U, upd.V, d.Positive, d.Negative, timeout})
	}
	m.Register("A", fGF.New(), q)
	m.Register("B", fSY.New(), q)
	if err := m.Init(g.Clone()); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(context.Background(), s); err != nil {
		t.Fatal(err)
	}

	oracle := coalesceChunks(s, k)
	for name, algo := range map[string]csm.Algorithm{"A": fGF.New(), "B": fSY.New()} {
		_, wantSeq, _ := runWithDeltas(t, algo, g.Clone(), q, oracle, Threads(2), BatchSize(4))
		if len(got[name]) != len(wantSeq) {
			t.Fatalf("%s: shared windowed emitted %d deltas, oracle %d", name, len(got[name]), len(wantSeq))
		}
		for i := range wantSeq {
			if got[name][i] != wantSeq[i] {
				t.Fatalf("%s: delta %d: shared %+v, oracle %+v", name, i, got[name][i], wantSeq[i])
			}
		}
	}
	wc := m.WindowCounters()
	if wc.UnsafeParallel == 0 || wc.MaxGroup < 2 {
		t.Fatalf("shared driver formed no parallel wave: %+v", wc)
	}
}

// TestWindowedOracleNonLocalSerial: SJ-Tree drains a window-order-
// dependent ΔM⁺ queue in Roots, so it must not implement
// csm.FootprintLocal — and the windowed executor must therefore never
// form a parallel wave for it, even over perfectly disjoint components,
// while still matching the sequential oracle (serial + coalescing only).
func TestWindowedOracleNonLocalSerial(t *testing.T) {
	f := algotest.Factories()[4] // SJ-Tree
	if _, ok := f.New().(csm.FootprintLocal); ok {
		t.Fatalf("%s implements FootprintLocal; this test needs a non-local algorithm", f.Name)
	}
	g, q, s := disjointComponentsFixture(8)
	st := checkWindowedOracle(t, f, g, q, s, 8)
	if st.Window.UnsafeParallel != 0 {
		t.Fatalf("non-local algorithm was scheduled into a parallel wave: %+v", st.Window)
	}
	if st.Window.FallbackSerial == 0 {
		t.Fatalf("no serial commits recorded: %+v", st.Window)
	}
}
