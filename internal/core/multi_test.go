package core

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"paracosm/internal/algo/algotest"
	"paracosm/internal/csm"
	"paracosm/internal/graph"
	"paracosm/internal/query"
	"paracosm/internal/refmatch"
	"paracosm/internal/stream"
)

func TestMultiEngineMatchesIndividualRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := algotest.RandomGraph(rng, 26, 55, 2, 1)
	q1 := algotest.RandomQuery(rng, g, 3)
	q2 := algotest.RandomQuery(rng, g, 4)
	if q1 == nil || q2 == nil {
		t.Skip("no queries")
	}
	s := algotest.RandomStream(rng, g, 35, 0.7, 1)

	fGF := algotest.Factories()[2] // GraphFlow
	fSY := algotest.Factories()[4] // Symbi

	m := NewMulti(Threads(2))
	m.Register("gf-q1", fGF.New(), q1)
	m.Register("sy-q2", fSY.New(), q2)
	if err := m.Init(g); err != nil {
		t.Fatal(err)
	}
	if m.NumQueries() != 2 {
		t.Fatalf("NumQueries = %d", m.NumQueries())
	}
	if err := m.Run(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()

	// Reference totals per query. The diffs also verify the shared input
	// graph was untouched: each reference replay starts from g's current
	// (pre-stream) state.
	for name, qq := range map[string]*queryGraphAlias{"gf-q1": {q1}, "sy-q2": {q2}} {
		got := st[name]
		var wantPos, wantNeg uint64
		h := g.Clone()
		for _, upd := range s {
			p, n := refmatch.Delta(h, qq.g, upd, refmatch.Options{})
			wantPos += p
			wantNeg += n
			if err := upd.Apply(h); err != nil {
				t.Fatal(err)
			}
		}
		if got.Positive != wantPos || got.Negative != wantNeg {
			t.Fatalf("%s: (+%d,-%d), reference (+%d,-%d)", name, got.Positive, got.Negative, wantPos, wantNeg)
		}
	}
}

// queryGraphAlias keeps the reference-replay map literal tidy.
type queryGraphAlias struct{ g *query.Graph }

func TestMultiEngineEmptyInit(t *testing.T) {
	// Serving mode starts with zero queries: Init just retains the base
	// state, ProcessBatch advances it, and RegisterLive picks it up.
	m := NewMulti()
	rng := rand.New(rand.NewSource(1))
	g := algotest.RandomGraph(rng, 5, 5, 1, 1)
	if err := m.Init(g); err != nil {
		t.Fatalf("Init with no queries: %v", err)
	}
	if _, err := m.ProcessBatch(context.Background(), nil); err != nil {
		t.Fatalf("empty ProcessBatch: %v", err)
	}
}

func TestMultiEngineEngineLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := algotest.RandomGraph(rng, 20, 40, 2, 1)
	q := algotest.RandomQuery(rng, g, 3)
	if q == nil {
		t.Skip("no query")
	}
	m := NewMulti(Threads(1))
	m.Register("only", algotest.Factories()[2].New(), q)
	if err := m.Init(g); err != nil {
		t.Fatal(err)
	}
	if m.Engine("only") == nil {
		t.Fatal("registered engine not found")
	}
	if m.Engine("nope") != nil {
		t.Fatal("unknown engine returned")
	}
}

// refTotals replays s against a clone of g, returning the reference
// (+,-) totals for q and leaving g untouched.
func refTotals(t *testing.T, g *graph.Graph, q *query.Graph, s stream.Stream) (pos, neg uint64) {
	t.Helper()
	h := g.Clone()
	for _, upd := range s {
		p, n := refmatch.Delta(h, q, upd, refmatch.Options{})
		pos += p
		neg += n
		if err := upd.Apply(h); err != nil {
			t.Fatal(err)
		}
	}
	return pos, neg
}

// TestMultiEngineDeregister is the register→run→deregister→run cycle of
// the serving layer: dropping one query mid-stream closes its engine
// without disturbing the others, which keep producing correct totals.
func TestMultiEngineDeregister(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := algotest.RandomGraph(rng, 24, 50, 2, 1)
	q1 := algotest.RandomQuery(rng, g, 3)
	q2 := algotest.RandomQuery(rng, g, 4)
	if q1 == nil || q2 == nil {
		t.Skip("no queries")
	}
	s := algotest.RandomStream(rng, g, 40, 0.7, 1)
	half := s[:20]
	rest := s[20:]

	wantPos, wantNeg := refTotals(t, g, q1, s)

	m := NewMulti(Threads(2))
	defer m.Close()
	m.Register("keep", algotest.Factories()[2].New(), q1) // GraphFlow
	m.Register("drop", algotest.Factories()[4].New(), q2) // Symbi
	if err := m.Init(g); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(context.Background(), half); err != nil {
		t.Fatal(err)
	}
	if !m.Deregister("drop") {
		t.Fatal("Deregister of live query reported false")
	}
	if m.Deregister("drop") {
		t.Fatal("second Deregister not idempotent")
	}
	if m.NumQueries() != 1 || m.Engine("drop") != nil {
		t.Fatalf("dropped query still visible: n=%d", m.NumQueries())
	}
	if err := m.Run(context.Background(), rest); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if _, ok := st["drop"]; ok {
		t.Fatal("Stats still reports deregistered query")
	}
	got := st["keep"]
	if got.Positive != wantPos || got.Negative != wantNeg {
		t.Fatalf("keep: (+%d,-%d), reference (+%d,-%d)", got.Positive, got.Negative, wantPos, wantNeg)
	}
}

// TestMultiEngineRegisterLive checks the serving-mode flow: a query
// registered between batches starts from the retained base state and its
// totals match a reference replay from the registration point onward.
func TestMultiEngineRegisterLive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := algotest.RandomGraph(rng, 24, 50, 2, 1)
	q1 := algotest.RandomQuery(rng, g, 3)
	q2 := algotest.RandomQuery(rng, g, 3)
	if q1 == nil || q2 == nil {
		t.Skip("no queries")
	}
	s := algotest.RandomStream(rng, g, 40, 0.7, 1)
	first := s[:20]
	second := s[20:]

	type delta struct {
		query string
		pos   uint64
		neg   uint64
	}
	var (
		deltaMu sync.Mutex
		deltas  []delta
	)
	m := NewMulti(Threads(2))
	defer m.Close()
	m.OnDelta = func(query string, upd stream.Update, d csm.Delta, timeout bool) {
		deltaMu.Lock()
		deltas = append(deltas, delta{query, d.Positive, d.Negative})
		deltaMu.Unlock()
	}
	m.Register("early", algotest.Factories()[2].New(), q1)
	if err := m.Init(g); err != nil {
		t.Fatal(err)
	}
	if n, err := m.ProcessBatch(context.Background(), first); err != nil || n != len(first) {
		t.Fatalf("ProcessBatch(first) = %d, %v", n, err)
	}
	if err := m.RegisterLive("late", algotest.Factories()[4].New(), q2); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterLive("late", algotest.Factories()[4].New(), q2); err == nil {
		t.Fatal("duplicate RegisterLive accepted")
	}
	if n, err := m.ProcessBatch(context.Background(), second); err != nil || n != len(second) {
		t.Fatalf("ProcessBatch(second) = %d, %v", n, err)
	}

	st := m.Stats()
	wantPosE, wantNegE := refTotals(t, g, q1, s)
	if got := st["early"]; got.Positive != wantPosE || got.Negative != wantNegE {
		t.Fatalf("early: (+%d,-%d), reference (+%d,-%d)", got.Positive, got.Negative, wantPosE, wantNegE)
	}
	// The late query's reference starts from the post-first-batch state.
	mid := g.Clone()
	if err := first.ApplyAll(mid); err != nil {
		t.Fatal(err)
	}
	wantPosL, wantNegL := refTotals(t, mid, q2, second)
	if got := st["late"]; got.Positive != wantPosL || got.Negative != wantNegL {
		t.Fatalf("late: (+%d,-%d), reference (+%d,-%d)", got.Positive, got.Negative, wantPosL, wantNegL)
	}

	// OnDelta totals reconcile with Stats per query.
	sums := map[string][2]uint64{}
	deltaMu.Lock()
	for _, d := range deltas {
		s := sums[d.query]
		sums[d.query] = [2]uint64{s[0] + d.pos, s[1] + d.neg}
	}
	deltaMu.Unlock()
	for name, want := range st {
		got := sums[name]
		if got[0] != want.Positive || got[1] != want.Negative {
			t.Fatalf("%s: OnDelta sums (+%d,-%d), Stats (+%d,-%d)", name, got[0], got[1], want.Positive, want.Negative)
		}
	}
}

// TestMultiEngineProcessBatchFiltersInvalid checks that malformed updates
// (duplicate edges, deletions of missing edges) are rejected at the base
// graph and never reach the per-query engines.
func TestMultiEngineProcessBatchFiltersInvalid(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := algotest.RandomGraph(rng, 20, 30, 2, 1)
	q := algotest.RandomQuery(rng, g, 3)
	if q == nil {
		t.Skip("no query")
	}
	s := algotest.RandomStream(rng, g, 10, 1.0, 1)
	// Interleave each valid update with a duplicate of itself: the
	// duplicate +e must be rejected (edge now exists).
	var batch stream.Stream
	for _, upd := range s {
		batch = append(batch, upd, upd)
	}
	m := NewMulti(Threads(1))
	defer m.Close()
	m.Register("q", algotest.Factories()[2].New(), q)
	if err := m.Init(g); err != nil {
		t.Fatal(err)
	}
	n, err := m.ProcessBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(s) {
		t.Fatalf("applied %d of %d (want %d valid)", n, len(batch), len(s))
	}
	if got := m.Stats()["q"].Updates; got != len(s) {
		t.Fatalf("engine saw %d updates, want %d", got, len(s))
	}
}
