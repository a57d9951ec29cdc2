package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"paracosm/internal/algo/algotest"
	"paracosm/internal/csm"
	"paracosm/internal/graph"
	"paracosm/internal/obs"
	"paracosm/internal/query"
	"paracosm/internal/stream"
)

// deltaRec is one observed OnDelta invocation, for sequence comparison.
type deltaRec struct {
	upd      stream.Update
	pos, neg uint64
}

// deltaLog collects per-query OnDelta sequences under a lock (different
// queries report concurrently during the shared fan-out).
type deltaLog struct {
	mu   sync.Mutex
	seqs map[string][]deltaRec
}

func newDeltaLog() *deltaLog { return &deltaLog{seqs: make(map[string][]deltaRec)} }

func (l *deltaLog) add(name string, upd stream.Update, d csm.Delta) {
	l.mu.Lock()
	l.seqs[name] = append(l.seqs[name], deltaRec{upd, d.Positive, d.Negative})
	l.mu.Unlock()
}

// privateReplay runs q alone over a private clone of base through s —
// the pre-shared-graph execution model — returning its Stats and OnDelta
// sequence (one record per update). This is the oracle the shared-graph
// MultiEngine must match. Both drivers classify every update against the
// current state, so the per-stage safe counters are comparable and not
// only the totals.
func privateReplay(t *testing.T, algo csm.Algorithm, base *graph.Graph, q *query.Graph, s stream.Stream) (Stats, []deltaRec) {
	t.Helper()
	var seq []deltaRec
	eng := New(algo, Threads(2), WithOnDelta(func(upd stream.Update, d csm.Delta, timeout bool) {
		seq = append(seq, deltaRec{upd, d.Positive, d.Negative})
	}))
	defer eng.Close()
	if err := eng.Init(base.Clone(), q); err != nil {
		t.Fatal(err)
	}
	st, err := eng.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	return st, seq
}

// checkSharedDeltas compares one query's OnDelta sequence from a shared run
// with its private replay's: every fired shared delta is the private delta
// of the same update, in order, and what the shared run left out — the
// pairs its dispatch index skipped — is all empty.
func checkSharedDeltas(t *testing.T, name string, shared, private []deltaRec) {
	t.Helper()
	p := 0
	for i, rec := range shared {
		for p < len(private) && private[p] != rec {
			if private[p].pos != 0 || private[p].neg != 0 {
				t.Errorf("%s: private delta %d %+v never fired in the shared run", name, p, private[p])
			}
			p++
		}
		if p == len(private) {
			t.Errorf("%s: shared delta %d %+v has no private counterpart", name, i, rec)
			return
		}
		p++
	}
	for ; p < len(private); p++ {
		if private[p].pos != 0 || private[p].neg != 0 {
			t.Errorf("%s: private delta %d %+v never fired in the shared run", name, p, private[p])
		}
	}
}

// statsCounts is the slice of Stats every driver must agree on exactly:
// everything that counts updates, matches and search nodes, nothing timed.
type statsCounts struct {
	Updates, Safe, ByLabel, ByDegree, ByADS, Unsafe, Vertex int
	Positive, Negative, Nodes                               uint64
}

func countsOf(st Stats) statsCounts {
	return statsCounts{
		st.Updates, st.SafeUpdates, st.SafeByLabel, st.SafeByDegree, st.SafeByADS,
		st.UnsafeUpdates, st.VertexUpdates, st.Positive, st.Negative, st.Nodes,
	}
}

func (a *statsCounts) add(b statsCounts) {
	a.Updates += b.Updates
	a.Safe += b.Safe
	a.ByLabel += b.ByLabel
	a.ByDegree += b.ByDegree
	a.ByADS += b.ByADS
	a.Unsafe += b.Unsafe
	a.Vertex += b.Vertex
	a.Positive += b.Positive
	a.Negative += b.Negative
	a.Nodes += b.Nodes
}

// skewedLabel draws a vertex label from a skewed distribution over six
// labels: half the mass on label 0, labels 4 and 5 rare.
func skewedLabel(rng *rand.Rand) graph.Label {
	switch r := rng.Intn(20); {
	case r < 10:
		return 0
	case r < 14:
		return 1
	case r < 17:
		return 2
	case r < 19:
		return 3
	default:
		return graph.Label(4 + rng.Intn(2))
	}
}

// skewedStream generates a well-formed stream of edge inserts (probability
// insertP) and deletes over g plus vertex ops: an AddVertex is always
// followed by an edge to the new vertex, so a batch boundary placed anywhere
// leaves some batch using an ID it created itself, and isolated vertices get
// deleted. One edge update in ten undoes the one before it, so a window
// over the stream has pairs to annihilate and edges to retouch. Two edge
// labels.
func skewedStream(rng *rand.Rand, g *graph.Graph, length int, insertP float64) stream.Stream {
	sim := g.Clone()
	var s stream.Stream
	emit := func(u stream.Update) {
		if err := u.Apply(sim); err != nil {
			panic(err)
		}
		s = append(s, u)
	}
	liveVertex := func() graph.VertexID {
		for {
			if v := graph.VertexID(rng.Intn(sim.NumVertices())); sim.Alive(v) {
				return v
			}
		}
	}
	for len(s) < length {
		switch r := rng.Float64(); {
		case r < 0.05:
			peer := liveVertex()
			emit(stream.Update{Op: stream.AddVertex, VLabel: skewedLabel(rng)})
			nv := graph.VertexID(sim.NumVertices() - 1)
			emit(stream.Update{Op: stream.AddEdge, U: nv, V: peer, ELabel: graph.Label(rng.Intn(2))})
		case r < 0.10:
			for v := 0; v < sim.NumVertices(); v++ {
				if id := graph.VertexID(v); sim.Alive(id) && sim.Degree(id) == 0 {
					emit(stream.Update{Op: stream.DeleteVertex, U: id})
					break
				}
			}
		case r < 0.20 && len(s) > 0 && s[len(s)-1].IsEdge():
			last := s[len(s)-1]
			if last.Op == stream.AddEdge {
				last.Op = stream.DeleteEdge
			} else {
				last.Op, last.ELabel = stream.AddEdge, graph.Label(rng.Intn(2))
			}
			emit(last)
		case r < 0.10+0.90*insertP:
			if u, v := liveVertex(), liveVertex(); u != v && !sim.HasEdge(u, v) {
				emit(stream.Update{Op: stream.AddEdge, U: u, V: v, ELabel: graph.Label(rng.Intn(2))})
			}
		default:
			if u := liveVertex(); sim.Degree(u) > 0 {
				ns := sim.Neighbors(u)
				emit(stream.Update{Op: stream.DeleteEdge, U: u, V: ns[rng.Intn(len(ns))].ID})
			}
		}
	}
	return s
}

// pathQuery builds the path query over the given vertex labels, every edge
// labelled 0.
func pathQuery(t *testing.T, labels ...graph.Label) *query.Graph {
	t.Helper()
	q := query.MustNew(labels)
	for i := 1; i < len(labels); i++ {
		q.MustAddEdge(query.VertexID(i-1), query.VertexID(i), 0)
	}
	if err := q.Finalize(); err != nil {
		t.Fatal(err)
	}
	return q
}

// dispatchRule restates, independently of the index, which edge updates a
// query must be visited for: by endpoint-label pair for the ADS-free
// algorithms, by either endpoint label for those that keep a
// degree-sensitive ADS, always for the rest.
func dispatchRule(algoName string, q *query.Graph, lx, ly graph.Label) bool {
	switch algoName {
	case "GraphFlow", "NewSP":
		for _, e := range q.Edges() {
			a, b := q.Label(e.U), q.Label(e.V)
			if (a == lx && b == ly) || (a == ly && b == lx) {
				return true
			}
		}
		return false
	case "CaLiG", "CaLiG-counting", "Symbi", "TurboFlux":
		for u := 0; u < q.NumVertices(); u++ {
			if l := q.Label(query.VertexID(u)); l == lx || l == ly {
				return true
			}
		}
		return false
	}
	return true
}

// oracleQuery is one standing query of the shared-oracle fixture, live
// while segments [from, to) are processed.
type oracleQuery struct {
	name     string
	f        algotest.Factory
	q        *query.Graph
	from, to int
}

// TestMultiEngineSharedOracle is the equivalence proof for the shared-graph
// driver and its dispatch index: for every bundled algorithm, queries
// joining and leaving mid-stream through ONE shared graph must end with
// exactly the counters they would have produced running alone over private
// clones — although most (query, update) pairs never reach their engine and
// are accounted in bulk — and must report the same nonzero deltas for the
// same updates. It also pins the index to its own rule (it visits exactly
// the pairs dispatchRule names) and the reconciliation identities of the
// observability layer. Run under -race this also exercises the fan-out
// phases' concurrent reads of the shared graph.
//
// Under Window(8) the same must hold with each call's batch coalesced in
// windows of 8 standing for the batch: the private engines replay the
// survivors, and the dispatch index routes and counts exactly them.
func TestMultiEngineSharedOracle(t *testing.T) {
	for _, tc := range []struct {
		seed    int64
		insertP float64
	}{{31, 0.7}, {32, 0.45}, {33, 0.6}} {
		t.Run(fmt.Sprintf("seed%d", tc.seed), func(t *testing.T) { sharedOracle(t, tc.seed, tc.insertP, 0) })
		t.Run(fmt.Sprintf("seed%d_window8", tc.seed), func(t *testing.T) { sharedOracle(t, tc.seed, tc.insertP, 8) })
	}
}

func sharedOracle(t *testing.T, seed int64, insertP float64, window int) {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(40)
	for i := 0; i < 40; i++ {
		g.AddVertex(skewedLabel(rng))
	}
	for i := 0; i < 90; i++ {
		g.AddEdge(graph.VertexID(rng.Intn(40)), graph.VertexID(rng.Intn(40)), graph.Label(rng.Intn(2)))
	}
	s := skewedStream(rng, g, 120, insertP)
	segs := []stream.Stream{s[:40], s[40:80], s[80:]}
	// bases[i] is the graph before segment i: a query joining there is
	// replayed privately from it.
	bases := []*graph.Graph{g}
	for _, seg := range segs {
		next := bases[len(bases)-1].Clone()
		if err := seg.ApplyAll(next); err != nil {
			t.Fatal(err)
		}
		bases = append(bases, next)
	}

	// A pool of patterns from common to rare labels; every algorithm gets
	// four of them with the four lifetimes.
	pool := []*query.Graph{
		pathQuery(t, 0, 0, 1), pathQuery(t, 1, 0, 2), pathQuery(t, 0, 3), pathQuery(t, 4, 0, 5),
		pathQuery(t, 2, 1, 3, 0), pathQuery(t, 5, 4),
	}
	for _, size := range []int{3, 4, 3} {
		if q := algotest.RandomQuery(rng, g, size); q != nil {
			pool = append(pool, q)
		}
	}
	lifetimes := [][2]int{{0, 3}, {0, 1}, {1, 3}, {2, 3}}
	var queries []*oracleQuery
	for fi, f := range algotest.Factories() {
		for li, lt := range lifetimes {
			queries = append(queries, &oracleQuery{
				name: fmt.Sprintf("%s/%d", f.Name, li), f: f,
				q: pool[(fi*len(lifetimes)+li)%len(pool)], from: lt[0], to: lt[1],
			})
		}
	}

	tr := obs.NewTracer(1 << 12)
	shared := newDeltaLog()
	m := NewMulti(Threads(2), TrackQueries(true), WithTracer(tr), Window(window))
	defer m.Close()
	m.OnDelta = func(name string, upd stream.Update, d csm.Delta, timeout bool) {
		shared.add(name, upd, d)
	}
	if err := m.Init(g); err != nil {
		t.Fatal(err)
	}

	// Drive the segments, registering and deregistering at the boundaries
	// and restating the dispatch rule against a shadow graph as we go.
	// committed[i] is what the driver commits of segment i: the segment
	// itself, or under Window(n) each call's batch coalesced.
	committed := make([]stream.Stream, len(segs))
	final := make(map[string]QuerySnapshot) // at deregistration, or at the end
	wantVisited := make(map[string]int)
	var wantDC DispatchCounters
	var closedWant statsCounts
	closedN := 0
	shadow := g.Clone()
	ctx := context.Background()
	for si, seg := range segs {
		for _, oq := range queries {
			if oq.to == si {
				before := countsOf(m.TotalStats())
				for _, qs := range m.QuerySnapshots() {
					if qs.Name == oq.name {
						final[oq.name] = qs
						closedWant.add(countsOf(qs.Stats))
					}
				}
				if !m.Deregister(oq.name) {
					t.Fatalf("Deregister(%s) = false", oq.name)
				}
				closedN++
				if after := countsOf(m.TotalStats()); after != before {
					t.Fatalf("TotalStats moved across Deregister(%s): %+v -> %+v", oq.name, before, after)
				}
			}
		}
		for _, oq := range queries {
			if oq.from == si {
				if err := m.RegisterLive(oq.name, oq.f.New(), oq.q); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Uneven batches, so vertex ops and the edges using them land both
		// inside one batch and across a boundary.
		for off, k := 0, 1; off < len(seg); off, k = off+k, k%7+3 {
			end := off + k
			if end > len(seg) {
				end = len(seg)
			}
			batch := seg[off:end]
			if n, err := m.ProcessBatch(ctx, batch); err != nil || n != len(batch) {
				t.Fatalf("segment %d [%d:%d]: applied %d, %v", si, off, end, n, err)
			}
			if window > 1 {
				batch = coalesceChunks(batch, window)
			}
			committed[si] = append(committed[si], batch...)
		}
		for _, upd := range committed[si] {
			live := 0
			for _, oq := range queries {
				if oq.from > si || oq.to <= si {
					continue
				}
				live++
				if !upd.IsEdge() {
					wantVisited[oq.name]++
				} else if dispatchRule(oq.f.Name, oq.q, shadow.Label(upd.U), shadow.Label(upd.V)) {
					wantVisited[oq.name]++
					wantDC.Visited++
				}
			}
			if upd.IsEdge() {
				wantDC.Updates++
				wantDC.Skipped += uint64(live)
			}
			if err := upd.Apply(shadow); err != nil {
				t.Fatal(err)
			}
		}
	}
	if coalesced := len(s) - len(committed[0]) - len(committed[1]) - len(committed[2]); window > 1 && coalesced == 0 {
		t.Fatal("fixture lost its point: no window coalesced anything")
	} else if got := m.TotalStats().Window.Coalesced; got != coalesced {
		t.Errorf("driver coalesced %d updates away, want %d", got, coalesced)
	}
	wantDC.Skipped -= wantDC.Visited
	if wantDC.Skipped == 0 || wantDC.Visited == 0 {
		t.Fatalf("fixture lost its point: rule visits %d pairs and skips %d", wantDC.Visited, wantDC.Skipped)
	}
	if got := m.DispatchCounters(); got != wantDC {
		t.Errorf("dispatch counters %+v, the rule says %+v", got, wantDC)
	}
	for _, qs := range m.QuerySnapshots() {
		final[qs.Name] = qs
	}

	// Per query: counters, deltas and visit count against the private run.
	for _, oq := range queries {
		var own stream.Stream
		for _, seg := range committed[oq.from:oq.to] {
			own = append(own, seg...)
		}
		wantSt, wantSeq := privateReplay(t, oq.f.New(), bases[oq.from], oq.q, own)
		got, ok := final[oq.name]
		if !ok {
			t.Errorf("%s: no snapshot", oq.name)
			continue
		}
		if g, w := countsOf(got.Stats), countsOf(wantSt); g != w {
			t.Errorf("%s: shared %+v\n\tprivate %+v", oq.name, g, w)
		}
		if got.Visited != wantVisited[oq.name] {
			t.Errorf("%s: visited for %d of %d updates, the rule says %d", oq.name, got.Visited, got.Stats.Updates, wantVisited[oq.name])
		}
		checkSharedDeltas(t, oq.name, shared.seqs[oq.name], wantSeq)
	}

	// Latency samples reconcile with update counts, bulk samples included.
	for _, name := range m.QueryNames() {
		if got, want := m.Engine(name).lat.Count(), uint64(final[name].Stats.Updates); got != want {
			t.Errorf("%s: %d latency samples for %d updates", name, got, want)
		}
	}
	closed, n := m.ClosedStats()
	if n != closedN || countsOf(closed) != closedWant {
		t.Errorf("ClosedStats covers %d queries %+v, want %d %+v", n, countsOf(closed), closedN, closedWant)
	}

	// The shared tracer saw every pair, one way or the other.
	total := m.TotalStats()
	for _, ph := range []obs.Phase{obs.PhaseTotal, obs.PhaseADS, obs.PhaseFind} {
		if got := tr.Hist(ph).Count(); got != uint64(total.Updates) {
			t.Errorf("phase %v holds %d samples for %d updates", ph, got, total.Updates)
		}
	}

	// ExportState hands out the folded totals, and seeding a fresh engine
	// with them (what recovery does) reproduces them.
	var exported []QueryExport
	if err := m.ExportState(func(_ *graph.Graph, qs []QueryExport) error {
		exported = append(exported, qs...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	m2 := NewMulti(Threads(1))
	defer m2.Close()
	if err := m2.Init(bases[len(bases)-1]); err != nil {
		t.Fatal(err)
	}
	for _, ex := range exported {
		if countsOf(ex.Stats) != countsOf(final[ex.Name].Stats) {
			t.Errorf("%s: exported %+v, snapshot %+v", ex.Name, countsOf(ex.Stats), countsOf(final[ex.Name].Stats))
		}
		for _, oq := range queries {
			if oq.name == ex.Name {
				if err := m2.RegisterLive(oq.name, oq.f.New(), oq.q); err != nil {
					t.Fatal(err)
				}
			}
		}
		m2.Engine(ex.Name).SeedStats(ex.Stats)
	}
	for name, st := range m2.Stats() {
		if countsOf(st) != countsOf(final[name].Stats) {
			t.Errorf("%s: seeded %+v, exported %+v", name, countsOf(st), countsOf(final[name].Stats))
		}
	}
}

// multiTreeSetup builds a MultiEngine over treeAlgo queries (controlled
// search-tree sizes, see pool_test.go) on the trivial 4-vertex graph.
func multiTreeSetup(t *testing.T, algos map[string]*treeAlgo) *MultiEngine {
	t.Helper()
	g := graph.New(4)
	for i := 0; i < 4; i++ {
		g.AddVertex(1)
	}
	q := query.MustNew([]graph.Label{1, 1, 1})
	q.MustAddEdge(0, 1, 0)
	q.MustAddEdge(1, 2, 0)
	if err := q.Finalize(); err != nil {
		t.Fatal(err)
	}
	m := NewMulti(Threads(1), InterUpdate(false))
	for name, a := range algos {
		m.Register(name, a, q)
	}
	if err := m.Init(g); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMultiEngineRunJoinsAllErrors: when several queries fail in one Run,
// the combined error must name every failed query (not just the first)
// and spare the survivors.
func TestMultiEngineRunJoinsAllErrors(t *testing.T) {
	m := multiTreeSetup(t, map[string]*treeAlgo{
		"big1":  {width: 50, depth: 50}, // deadline probe fires mid-tree
		"big2":  {width: 50, depth: 50},
		"small": {width: 2, depth: 2}, // finishes before the first probe
	})
	defer m.Close()

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel()
	err := m.Run(expired, stream.Stream{{Op: stream.AddEdge, U: 0, V: 1}})
	if err == nil {
		t.Fatal("Run with expired deadline returned nil")
	}
	if !errors.Is(err, csm.ErrDeadline) {
		t.Fatalf("combined error does not wrap ErrDeadline: %v", err)
	}
	msg := err.Error()
	for _, want := range []string{`"big1"`, `"big2"`} {
		if !strings.Contains(msg, want) {
			t.Errorf("combined error missing %s: %v", want, err)
		}
	}
	if strings.Contains(msg, `"small"`) {
		t.Errorf("combined error names the successful query: %v", err)
	}
	if st := m.Stats()["small"]; st.Updates != 1 {
		t.Fatalf("surviving query processed %d updates, want 1", st.Updates)
	}
}

// TestMultiEngineRunClearsErrors: a failure reported by one Run (or
// ProcessBatch) must not resurface from a later call — the regression
// guard for the stale-mq.err bug.
func TestMultiEngineRunClearsErrors(t *testing.T) {
	m := multiTreeSetup(t, map[string]*treeAlgo{
		"big": {width: 50, depth: 50},
	})
	defer m.Close()

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel()
	if err := m.Run(expired, stream.Stream{{Op: stream.AddEdge, U: 0, V: 1}}); !errors.Is(err, csm.ErrDeadline) {
		t.Fatalf("first Run: err = %v, want ErrDeadline", err)
	}
	if err := m.Run(context.Background(), nil); err != nil {
		t.Fatalf("second Run resurfaced a cleared error: %v", err)
	}
	if _, err := m.ProcessBatch(context.Background(), nil); err != nil {
		t.Fatalf("ProcessBatch resurfaced a cleared error: %v", err)
	}
}

// TestMultiEngineProcessBatchNoQueriesKeepsState: with zero registered
// queries the speculative validation pass must still advance the shared
// graph (serving mode ingests before the first client registers), and a
// later RegisterLive observes the advanced state.
func TestMultiEngineProcessBatchNoQueriesKeepsState(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := algotest.RandomGraph(rng, 20, 35, 2, 1)
	q := algotest.RandomQuery(rng, g, 3)
	if q == nil {
		t.Skip("no query")
	}
	s := algotest.RandomStream(rng, g, 30, 0.7, 1)
	first, second := s[:15], s[15:]

	m := NewMulti(Threads(1))
	defer m.Close()
	if err := m.Init(g); err != nil {
		t.Fatal(err)
	}
	if n, err := m.ProcessBatch(context.Background(), first); err != nil || n != len(first) {
		t.Fatalf("queryless ProcessBatch = %d, %v", n, err)
	}
	if err := m.RegisterLive("late", algotest.Factories()[2].New(), q); err != nil {
		t.Fatal(err)
	}
	if n, err := m.ProcessBatch(context.Background(), second); err != nil || n != len(second) {
		t.Fatalf("second batch = %d, %v", n, err)
	}
	mid := g.Clone()
	if err := first.ApplyAll(mid); err != nil {
		t.Fatal(err)
	}
	wantPos, wantNeg := refTotals(t, mid, q, second)
	if got := m.Stats()["late"]; got.Positive != wantPos || got.Negative != wantNeg {
		t.Fatalf("late: (+%d,-%d), reference (+%d,-%d)", got.Positive, got.Negative, wantPos, wantNeg)
	}
}
