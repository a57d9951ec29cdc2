package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"paracosm/internal/algo/algotest"
	"paracosm/internal/csm"
	"paracosm/internal/graph"
	"paracosm/internal/query"
	"paracosm/internal/refmatch"
	"paracosm/internal/stream"
)

// TestDispatchDegreeFlip is the soundness regression for ADS-bearing
// algorithms: an update that is label-safe for a query still changes
// endpoint degrees, which the DCS/DCG static test and CaLiG's lighting read.
// The query is the star b(2)–{a(1), c(3), e(5)} with a tail c–d(4), so b
// needs degree 3. In the data w(2) has the a- and e-neighbours only, until
// a (2,9) edge — a label pair the query does not have — lifts it to degree
// 3: static(b, w) flips, and with it the entries hanging off w. The next
// edge, (w, z), is then unsafe only because D1[b][w] holds; an index that
// had kept the (2,9) update from the query would call it safe, leave
// D1[c][z] false, and prune the match the final (z, t) edge completes.
// GraphFlow, with no ADS to maintain, is rightly not visited for (2,9).
func TestDispatchDegreeFlip(t *testing.T) {
	q := query.MustNew([]graph.Label{1, 2, 3, 4, 5})
	q.MustAddEdge(0, 1, 0) // a–b
	q.MustAddEdge(1, 2, 0) // b–c
	q.MustAddEdge(2, 3, 0) // c–d
	q.MustAddEdge(1, 4, 0) // b–e
	if err := q.Finalize(); err != nil {
		t.Fatal(err)
	}
	g := graph.New(0)
	//                     x  w  y  z  t  n  p  p  p
	for _, l := range []graph.Label{1, 2, 5, 3, 4, 9, 9, 9, 9} {
		g.AddVertex(l)
	}
	const x, w, y, z, tt, n = 0, 1, 2, 3, 4, 5
	g.AddEdge(w, x, 0)
	g.AddEdge(w, y, 0)
	// Padding, so the later edges flip no degree test at z or t themselves.
	g.AddEdge(z, 6, 0)
	g.AddEdge(z, 7, 0)
	g.AddEdge(tt, 8, 0)
	s := stream.Stream{
		{Op: stream.AddEdge, U: w, V: n},  // label-safe, lifts w to degree 3
		{Op: stream.AddEdge, U: w, V: z},  // unsafe only if the ADS saw the flip
		{Op: stream.AddEdge, U: z, V: tt}, // completes the one match
		{Op: stream.DeleteEdge, U: w, V: n},
		{Op: stream.DeleteEdge, U: z, V: tt},
	}

	names := []string{"Symbi", "TurboFlux", "CaLiG", "GraphFlow"}
	algos := make(map[string]csm.Algorithm)
	var mu sync.Mutex // queries report concurrently
	got := make(map[string]csm.Delta)
	m := NewMulti(Threads(1))
	defer m.Close()
	m.OnDelta = func(name string, upd stream.Update, d csm.Delta, timeout bool) {
		mu.Lock()
		got[name] = d
		mu.Unlock()
	}
	for _, f := range algotest.Factories() {
		for _, name := range names {
			if f.Name == name {
				algos[name] = f.New()
				m.Register(name, algos[name], q)
			}
		}
	}
	if err := m.Init(g); err != nil {
		t.Fatal(err)
	}
	ref := g.Clone()
	var total uint64
	for i, upd := range s {
		pos, neg := refmatch.Delta(ref, q, upd, refmatch.Options{})
		if err := upd.Apply(ref); err != nil {
			t.Fatal(err)
		}
		total += pos + neg
		clear(got)
		if n, err := m.ProcessBatch(context.Background(), s[i:i+1]); n != 1 || err != nil {
			t.Fatalf("update %d: applied %d, %v", i, n, err)
		}
		for _, name := range names {
			if d := got[name]; d.Positive != pos || d.Negative != neg {
				t.Errorf("update %d %v, %s: ΔM (+%d,-%d), reference (+%d,-%d)", i, upd, name, d.Positive, d.Negative, pos, neg)
			}
			if rb, ok := algos[name].(csm.Rebuilder); ok && !rb.RebuildADS() {
				t.Errorf("update %d %v: %s's incremental ADS differs from a rebuild", i, upd, name)
			}
		}
	}
	if total != 2 {
		t.Fatalf("reference saw %d match changes, the fixture is built for one match appearing and expiring", total)
	}
	// The two (2,9) updates are label-safe for everybody, and only the
	// ADS-free query is spared them.
	for _, qs := range m.QuerySnapshots() {
		wantVisited := len(s)
		if qs.Name == "GraphFlow" {
			wantVisited -= 2
		}
		if qs.Stats.SafeByLabel != 2 || qs.Stats.Updates != len(s) || qs.Visited != wantVisited {
			t.Errorf("%s: %d updates, %d label-safe, visited for %d; want %d, 2, %d",
				qs.Name, qs.Stats.Updates, qs.Stats.SafeByLabel, qs.Visited, len(s), wantVisited)
		}
	}
}

// TestDispatchReadsLabelsPerUpdate: the labels an update is dispatched on
// are those its endpoints carry when its turn comes, not at batch start. A
// batch that fails to persist is rolled back, popping the vertex slot it
// added; the next batch re-creates the slot under another label and uses it
// at once.
func TestDispatchReadsLabelsPerUpdate(t *testing.T) {
	g := graph.New(0)
	g.AddVertex(1)
	g.AddVertex(3)
	q := pathQuery(t, 1, 2)
	m := NewMulti(Threads(1))
	defer m.Close()
	var fired []csm.Delta
	m.OnDelta = func(_ string, _ stream.Update, d csm.Delta, _ bool) { fired = append(fired, d) }
	if err := m.Init(g); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterLive("q", algotest.Factories()[2].New(), q); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	lost := stream.Stream{{Op: stream.AddVertex, VLabel: 3}, {Op: stream.AddEdge, U: 2, V: 0}}
	if _, err := m.ProcessBatchLogged(ctx, lost, nil, func(stream.Stream) error { return errors.New("disk full") }); err == nil {
		t.Fatal("persist error swallowed")
	}
	kept := stream.Stream{{Op: stream.AddVertex, VLabel: 2}, {Op: stream.AddEdge, U: 2, V: 0}, {Op: stream.AddEdge, U: 2, V: 1}}
	if n, err := m.ProcessBatch(ctx, kept); n != len(kept) || err != nil {
		t.Fatalf("applied %d, %v", n, err)
	}
	st := m.Stats()["q"]
	if st.Updates != 3 || st.Positive != 1 || st.SafeByLabel != 1 {
		t.Fatalf("stats %+v; want 3 updates, the (2,1) edge matched, the (2,3) edge label-safe", countsOf(st))
	}
	// Vertex op and matching edge fire; the skipped pair does not.
	if len(fired) != 2 || fired[1].Positive != 1 {
		t.Fatalf("fired %+v", fired)
	}
	if dc := m.DispatchCounters(); dc != (DispatchCounters{Updates: 2, Visited: 1, Skipped: 1}) {
		t.Fatalf("dispatch counters %+v", dc)
	}
}

// TestDispatchVisitOrder: a visit list is in registration order whatever
// rows its queries come from, and a query listed under both endpoint labels
// appears once.
func TestDispatchVisitOrder(t *testing.T) {
	g := graph.New(0)
	g.AddVertex(1)
	g.AddVertex(2)
	m := NewMulti(Threads(1))
	defer m.Close()
	if err := m.Init(g); err != nil {
		t.Fatal(err)
	}
	var want []string
	for round := 0; round < 3; round++ {
		for _, f := range algotest.Factories() { // label, pair and always rows, interleaved
			name := fmt.Sprintf("%s/%d", f.Name, round)
			if err := m.RegisterLive(name, f.New(), pathQuery(t, 1, 2, 1)); err != nil {
				t.Fatal(err)
			}
			want = append(want, name)
		}
	}
	// Leaving and rejoining moves a query to the end.
	m.Deregister(want[4])
	if err := m.RegisterLive(want[4], algotest.Factories()[0].New(), pathQuery(t, 2, 1)); err != nil {
		t.Fatal(err)
	}
	want = append(append(want[:4:4], want[5:]...), want[4])
	m.mu.Lock()
	defer m.mu.Unlock()
	var got []string
	for _, mq := range m.visitLocked(stream.Update{Op: stream.AddEdge, U: 0, V: 1}) {
		got = append(got, mq.name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("visit list %v\nwant registration order %v", got, want)
	}
}

// TestDispatchFailedQueryNotCredited: a query that fails mid-call sits out
// the rest of it; the updates it misses are neither visited nor skipped for
// it, exactly as under the visit-everything driver.
func TestDispatchFailedQueryNotCredited(t *testing.T) {
	g := graph.New(0)
	for _, l := range []graph.Label{1, 1, 1, 1, 7, 7} {
		g.AddVertex(l)
	}
	m := NewMulti(Threads(1))
	defer m.Close()
	if err := m.Init(g); err != nil {
		t.Fatal(err)
	}
	// big times out on the first update it searches; bystander's labels
	// never come up, so every update is bulk-accounted for it.
	if err := m.RegisterLive("big", &stagedTree{treeAlgo{width: 50, depth: 50}}, pathQuery(t, 1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterLive("bystander", algotest.Factories()[2].New(), pathQuery(t, 5, 6)); err != nil {
		t.Fatal(err)
	}
	s := stream.Stream{
		{Op: stream.AddEdge, U: 4, V: 5},
		{Op: stream.AddEdge, U: 0, V: 1}, // big fails here
		{Op: stream.AddEdge, U: 1, V: 2},
		{Op: stream.AddEdge, U: 2, V: 3},
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel()
	if err := m.Run(expired, s); !errors.Is(err, csm.ErrDeadline) {
		t.Fatalf("Run: %v, want ErrDeadline", err)
	}
	st := m.Stats()
	if got := st["big"].Updates; got != 2 {
		t.Errorf("big credited with %d updates, want 2 (one skipped, one failed on)", got)
	}
	if got := st["bystander"].Updates; got != len(s) {
		t.Errorf("bystander credited with %d updates, want %d", got, len(s))
	}
	if dc := m.DispatchCounters(); dc != (DispatchCounters{Updates: 4, Visited: 1, Skipped: 5}) {
		t.Errorf("dispatch counters %+v", dc)
	}
	// The error is reported once; the next call sees both queries again.
	if err := m.Run(context.Background(), stream.Stream{{Op: stream.AddEdge, U: 0, V: 4}}); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats()["big"].Updates; got != 3 {
		t.Errorf("big credited with %d updates after the second call, want 3", got)
	}
}

// stagedTree is treeAlgo behind a label stage: dispatched by pair like an
// ADS-free algobase algorithm, searched like the synthetic tree.
type stagedTree struct{ treeAlgo }

func (a *stagedTree) RelevantStages(stream.Update) (bool, bool) { return true, true }
func (a *stagedTree) DispatchLabels() ([][2]graph.Label, bool) {
	return [][2]graph.Label{{1, 1}}, false
}

// TestClassifyAllocations pins the classifier's label stage to the table
// query.Finalize builds: classifying an unsafe update — RelevantStages,
// then Relevant and the ADS probe behind AffectsADS — allocates nothing.
func TestClassifyAllocations(t *testing.T) {
	g := graph.New(0)
	for _, l := range []graph.Label{1, 2, 1, 2} {
		g.AddVertex(l)
	}
	g.AddEdge(0, 1, 0)
	q := pathQuery(t, 1, 2, 1)
	upd := stream.Update{Op: stream.AddEdge, U: 2, V: 1} // completes 0–1–2
	for _, f := range algotest.Factories() {
		switch f.Name {
		case "GraphFlow", "NewSP", "Symbi", "TurboFlux":
		default:
			continue // CaLiG's and SJ-Tree's stage 3 builds maps and keys
		}
		eng := New(f.New(), Threads(1))
		if err := eng.Init(g, q); err != nil {
			t.Fatal(err)
		}
		if v := eng.classify(upd); v != classUnsafe {
			t.Fatalf("%s: verdict %v, the fixture wants an unsafe update", f.Name, v)
		}
		if n := testing.AllocsPerRun(100, func() { eng.classify(upd) }); n != 0 {
			t.Errorf("%s: classify allocates %.1f per unsafe update, want 0", f.Name, n)
		}
	}
}
