package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"paracosm/internal/algo/algotest"
	"paracosm/internal/csm"
	"paracosm/internal/graph"
	"paracosm/internal/query"
	"paracosm/internal/stream"
)

// runWithDeltas runs one engine over s and returns its stats, delta
// sequence, and the post-run graph (the engine mutates the graph it was
// initialized with).
func runWithDeltas(t *testing.T, algo csm.Algorithm, g *graph.Graph, q *query.Graph, s stream.Stream, opts ...Option) (Stats, []deltaRec, *graph.Graph) {
	t.Helper()
	var seq []deltaRec
	opts = append(append([]Option(nil), opts...), WithOnDelta(func(upd stream.Update, d csm.Delta, timeout bool) {
		seq = append(seq, deltaRec{upd, d.Positive, d.Negative})
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

// checkWindowedOracle runs s through a windowed engine and checks the
// Window(n) contract: the delta sequence — values and order — must equal
// a per-update run over the coalesced stream, and the final graph and net
// totals must equal a per-update run over the raw stream (coalescing
// elides transient within-window matches, so only the NET totals are
// raw-comparable — see DESIGN.md §15).
func checkWindowedOracle(t *testing.T, f algotest.Factory, g *graph.Graph, q *query.Graph, s stream.Stream, window int) Stats {
	t.Helper()
	opts := []Option{Threads(4), BatchSize(8)}

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
	if want := (len(s) + window - 1) / window; gotSt.Window.Windows != want {
		t.Fatalf("%s w=%d: windowed run recorded %d windows, want %d", f.Name, window, gotSt.Window.Windows, want)
	}
	if gotSt.Updates != len(oracleStream) || gotSt.Window.Coalesced != len(s)-len(oracleStream) {
		t.Fatalf("%s w=%d: %d updates committed and %d coalesced away, oracle stream has %d of %d",
			f.Name, window, gotSt.Updates, gotSt.Window.Coalesced, len(oracleStream), len(s))
	}
	return gotSt
}

// TestWindowedOracleRandom is the core equality proof for Window(n):
// random mixed streams, several window sizes, every bundled algorithm —
// SJ-Tree's window-order-dependent ΔM⁺ queue included.
func TestWindowedOracleRandom(t *testing.T) {
	type fixture struct {
		g *graph.Graph
		q *query.Graph
		s stream.Stream
	}
	var fixtures []fixture
	for _, seed := range []int64{7, 19} {
		rng := rand.New(rand.NewSource(seed))
		g := algotest.RandomGraph(rng, 30, 70, 2, 1)
		q := algotest.RandomQuery(rng, g, 3)
		if q == nil {
			t.Skip("no query")
		}
		fixtures = append(fixtures, fixture{g, q, algotest.RandomStream(rng, g, 80, 0.6, 1)})
	}
	for _, f := range algotest.Factories() {
		t.Run(f.Name, func(t *testing.T) {
			for _, fx := range fixtures {
				for _, w := range []int{4, 16, 64} {
					checkWindowedOracle(t, f, fx.g, fx.q, fx.s, w)
				}
			}
		})
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
	var s stream.Stream
	for _, upd := range algotest.RandomStream(rng, g, 10, 0.7, 1) {
		u := graph.VertexID(rng.Intn(g.NumVertices()))
		v := graph.VertexID(rng.Intn(g.NumVertices()))
		if u != v && !g.HasEdge(u, v) {
			s = append(s,
				stream.Update{Op: stream.AddEdge, U: u, V: v},
				stream.Update{Op: stream.DeleteEdge, U: u, V: v})
		}
		s = append(s, upd)
	}
	for _, f := range algotest.Factories() {
		t.Run(f.Name, func(t *testing.T) {
			if st := checkWindowedOracle(t, f, g, q, s, 32); st.Window.Annihilated == 0 {
				t.Fatalf("expected annihilated pairs, got %+v", st.Window)
			}
		})
	}
}

// TestWindowedOracleVertexOps: vertex ops mid-window are barriers — the
// coalescer may not fold across them — and the result still matches the
// oracle.
func TestWindowedOracleVertexOps(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := algotest.RandomGraph(rng, 24, 50, 2, 1)
	q := algotest.RandomQuery(rng, g, 3)
	if q == nil {
		t.Skip("no query")
	}
	var s stream.Stream
	for i, upd := range algotest.RandomStream(rng, g, 30, 0.6, 1) {
		s = append(s, upd)
		if i%7 == 3 {
			s = append(s, stream.Update{Op: stream.AddVertex, VLabel: graph.Label(i % 2)})
		}
	}
	for _, f := range algotest.Factories() {
		t.Run(f.Name, func(t *testing.T) { checkWindowedOracle(t, f, g, q, s, 16) })
	}
}

// TestMultiWindowedOracle proves the shared-graph driver under Window(n)
// equivalent to per-query private replays over the coalesced stream, for
// every bundled algorithm on one shared graph: every query must fire, in
// order, exactly the deltas of a per-update run over its own clone (less
// the provably empty ones its dispatch rows spare it), end with the same
// totals, and the driver counters must record the windows.
func TestMultiWindowedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := algotest.RandomGraph(rng, 28, 60, 2, 1)
	qs := []*query.Graph{algotest.RandomQuery(rng, g, 3), algotest.RandomQuery(rng, g, 4)}
	if qs[0] == nil || qs[1] == nil {
		t.Skip("no queries")
	}
	s := algotest.RandomStream(rng, g, 64, 0.6, 1)
	const window = 16

	shared := newDeltaLog()
	m := NewMulti(Threads(2), BatchSize(4), Window(window))
	defer m.Close()
	m.OnDelta = func(name string, upd stream.Update, d csm.Delta, timeout bool) {
		shared.add(name, upd, d)
	}
	type standing struct {
		name string
		f    algotest.Factory
		q    *query.Graph
	}
	var queries []standing
	for _, f := range algotest.Factories() {
		for qi, q := range qs {
			sq := standing{fmt.Sprintf("%s/%d", f.Name, qi), f, q}
			queries = append(queries, sq)
			m.Register(sq.name, f.New(), q)
		}
	}
	if err := m.Init(g); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(context.Background(), s); err != nil {
		t.Fatal(err)
	}

	oracle := coalesceChunks(s, window)
	stats := m.Stats()
	for _, sq := range queries {
		wantSt, wantSeq, _ := runWithDeltas(t, sq.f.New(), g.Clone(), sq.q, oracle, Threads(2), BatchSize(1))
		checkSharedDeltas(t, sq.name, shared.seqs[sq.name], wantSeq)
		if got, want := countsOf(stats[sq.name]), countsOf(wantSt); got != want {
			t.Errorf("%s: shared %+v\n\tprivate %+v", sq.name, got, want)
		}
	}
	wc := m.WindowCounters()
	if want := (len(s) + window - 1) / window; wc.Windows != want {
		t.Fatalf("driver counted %d windows, want %d", wc.Windows, want)
	}
	if wc.Coalesced != len(s)-len(oracle) {
		t.Fatalf("driver coalesced %d updates away, oracle stream has %d of %d", wc.Coalesced, len(oracle), len(s))
	}
}

// TestWindowedRunErrorPosition: Run reports a failing update at its
// position in the raw stream, not among its window's survivors.
func TestWindowedRunErrorPosition(t *testing.T) {
	g := graph.New(4)
	for i := 0; i < 4; i++ {
		g.AddVertex(0)
	}
	eng := New(algotest.Factories()[2].New(), Threads(1), Window(8))
	defer eng.Close()
	if err := eng.Init(g, pathQuery(t, 0, 0)); err != nil {
		t.Fatal(err)
	}
	_, err := eng.Run(context.Background(), stream.Stream{
		{Op: stream.AddEdge, U: 0, V: 1},
		{Op: stream.DeleteEdge, U: 0, V: 1}, // annihilates with update 0
		{Op: stream.AddEdge, U: 1, V: 2},
		{Op: stream.DeleteEdge, U: 2, V: 3}, // survivor 1, update 3: no such edge
	})
	if err == nil || !strings.Contains(err.Error(), "update 3:") {
		t.Fatalf("Run error = %v, want one naming update 3", err)
	}
}
