package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"paracosm/internal/algo/algotest"
	"paracosm/internal/graph"
	"paracosm/internal/obs"
	"paracosm/internal/query"
	"paracosm/internal/stream"
)

// TestMultiStageCountsReconcile is the acceptance invariant of the
// pipeline tracing layer: after any mix of batches — including invalid
// updates that the speculative apply filters out — every per-update
// stage histogram holds EXACTLY one sample per applied update. Run under
// -race this also exercises QuerySnapshots/TotalStats readers against
// the lockstep driver. Under Window(8) an applied update that coalescing
// removes still counts in every per-update stage, the coalesce stage
// holds one sample per window, and the engines see the survivors only.
func TestMultiStageCountsReconcile(t *testing.T) {
	for _, window := range []int{0, 8} {
		t.Run(fmt.Sprintf("window%d", window), func(t *testing.T) { stageCountsReconcile(t, window) })
	}
}

func stageCountsReconcile(t *testing.T, window int) {
	rng := rand.New(rand.NewSource(23))
	g := algotest.RandomGraph(rng, 30, 60, 2, 1)
	qA := algotest.RandomQuery(rng, g, 3)
	qB := algotest.RandomQuery(rng, g, 3)
	if qA == nil || qB == nil {
		t.Skip("no queries")
	}
	s := algotest.RandomStream(rng, g, 120, 0.7, 1)

	tr := obs.NewTracer(1 << 10)
	m := NewMulti(Threads(2), WithTracer(tr), Window(window))
	defer m.Close()
	if err := m.Init(g); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterLive("a", algotest.Factories()[2].New(), qA); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterLive("b", algotest.Factories()[4].New(), qB); err != nil {
		t.Fatal(err)
	}

	// Concurrent observability readers, racing the lockstep driver.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, qs := range m.QuerySnapshots() {
				_ = qs.Stats.Updates
			}
			_ = m.TotalStats()
		}
	}()

	ctx := context.Background()
	applied, submitted, survivors, windows := 0, 0, 0, 0
	for off := 0; off < len(s); off += 16 {
		end := off + 16
		if end > len(s) {
			end = len(s)
		}
		chunk := append(stream.Stream(nil), s[off:end]...)
		if off%32 == 0 {
			// Churn for the coalescer: undo the chunk's last update, redo it.
			last, undo := chunk[len(chunk)-1], chunk[len(chunk)-1]
			undo.Op = stream.AddEdge + stream.DeleteEdge - last.Op
			chunk = append(chunk, undo, last)
		}
		// A guaranteed-invalid update (self-loop delete that was never
		// inserted): filtered by the speculative apply, so it must NOT
		// contribute stage samples.
		chunk = append(chunk, stream.Update{Op: stream.DeleteEdge, U: 0, V: 0})
		var bt *BatchTimes
		if off == 0 {
			// One timed batch: queue waits must flow into the wait stages.
			now := time.Now()
			bt = &BatchTimes{Flushed: now}
			for range chunk {
				bt.Enqueued = append(bt.Enqueued, now.Add(-10*time.Millisecond))
				bt.Dequeued = append(bt.Dequeued, now.Add(-2*time.Millisecond))
			}
		}
		n, err := m.ProcessBatchLogged(ctx, chunk, bt, nil)
		if err != nil {
			t.Fatal(err)
		}
		applied += n
		submitted += len(chunk)
		if window > 1 {
			// chunk's valid updates are all of it but the appended one.
			survivors += len(coalesceChunks(chunk[:n], window))
			windows += (n + window - 1) / window
		} else {
			survivors += n
		}
	}
	close(stop)
	wg.Wait()

	if applied >= submitted {
		t.Fatalf("no invalid updates filtered (applied %d of %d); the test lost its point", applied, submitted)
	}
	st := tr.Stages()
	for _, stg := range obs.UpdateStages {
		if got := st.Hist(stg).Count(); got != uint64(applied) {
			t.Errorf("stage %v count = %d, want applied %d", stg, got, applied)
		}
	}
	if ws := st.Hist(obs.StageIngestWait).Sum(); ws < 8*time.Millisecond {
		t.Errorf("ingest-wait sum %v; the timed batch's queue waits never landed", ws)
	}
	if as := st.Hist(obs.StageAssemble).Sum(); as < time.Millisecond {
		t.Errorf("assemble sum %v; the timed batch's dwell never landed", as)
	}

	// The ring carries one ClassStage event per applied update, each
	// internally consistent, and one "win" event per window.
	stageEvents, winEvents := 0, 0
	for _, ev := range tr.Ring().Snapshot() {
		if ev.Class != obs.ClassStage {
			continue
		}
		if ev.Op == obs.OpWindow {
			winEvents++
			continue
		}
		stageEvents++
		if sum := ev.IngestWait + ev.Assemble + ev.PreApply + ev.Commit + ev.PostApply; sum != ev.Total {
			t.Errorf("stage event parts %v != total %v", sum, ev.Total)
		}
	}
	if stageEvents != applied {
		t.Errorf("ring stage events = %d, want applied %d", stageEvents, applied)
	}
	if got := st.Hist(obs.StageCoalesce).Count(); got != uint64(windows) || winEvents != windows {
		t.Errorf("coalesce stage count = %d, ring window events = %d, want one per window: %d", got, winEvents, windows)
	}
	if window > 1 && survivors == applied {
		t.Fatal("no applied update was coalesced away; the windowed case lost its point")
	}

	// Per-query engines each saw every committed update.
	for _, qs := range m.QuerySnapshots() {
		if qs.Stats.Updates != survivors {
			t.Errorf("query %q processed %d updates, want %d", qs.Name, qs.Stats.Updates, survivors)
		}
	}

	// An apply error names the update's position in the stream the caller
	// passed, not among the survivors: four touches of one edge fold to two
	// survivors or none, and the self-loop delete behind them cannot apply.
	last, undo := s[len(s)-1], s[len(s)-1]
	undo.Op = stream.AddEdge + stream.DeleteEdge - last.Op
	err := m.Run(ctx, stream.Stream{undo, last, undo, last, {Op: stream.DeleteEdge, U: 0, V: 0}})
	if err == nil || !strings.Contains(err.Error(), "update 4 ") {
		t.Errorf("Run error = %v, want one naming update 4", err)
	}
}

// TestMultiStageZeroQueryPath: with no registered queries a batch runs
// through the driver's loop like any other, and stage counts must still
// reconcile with the applied count.
func TestMultiStageZeroQueryPath(t *testing.T) {
	g := graph.New(0)
	for i := 0; i < 6; i++ {
		g.AddVertex(0)
	}
	tr := obs.NewTracer(256)
	m := NewMulti(WithTracer(tr))
	defer m.Close()
	if err := m.Init(g); err != nil {
		t.Fatal(err)
	}
	batch := stream.Stream{
		{Op: stream.AddEdge, U: 0, V: 1},
		{Op: stream.AddEdge, U: 1, V: 2},
		{Op: stream.AddEdge, U: 0, V: 1}, // duplicate: invalid
		{Op: stream.DeleteEdge, U: 0, V: 1},
	}
	applied, err := m.ProcessBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 3 {
		t.Fatalf("applied = %d, want 3", applied)
	}
	st := tr.Stages()
	for _, stg := range obs.UpdateStages {
		if got := st.Hist(stg).Count(); got != uint64(applied) {
			t.Errorf("stage %v count = %d, want %d", stg, got, applied)
		}
	}
}

// TestQuerySnapshotLatency covers the per-query latency view:
// registered engines expose latency quantiles through QuerySnapshots,
// and a deregistered query leaves them. Updates the dispatch index keeps
// away from a query are zero-duration samples, added in bulk when the
// histogram is read: query "idle", whose labels the stream never touches,
// holds nothing else.
func TestQuerySnapshotLatency(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := algotest.RandomGraph(rng, 25, 50, 2, 1)
	q := algotest.RandomQuery(rng, g, 3)
	if q == nil {
		t.Skip("no query")
	}
	s := algotest.RandomStream(rng, g, 80, 0.7, 1)

	m := NewMulti(Threads(1))
	defer m.Close()
	if err := m.Init(g); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterLive("a", algotest.Factories()[2].New(), q); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterLive("b", algotest.Factories()[4].New(), q); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterLive("idle", algotest.Factories()[2].New(), pathQuery(t, 7, 8)); err != nil {
		t.Fatal(err)
	}
	applied, err := m.ProcessBatch(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if applied == 0 {
		t.Fatal("no updates applied")
	}

	snaps := m.QuerySnapshots()
	if len(snaps) != 3 || snaps[0].Name != "a" || snaps[1].Name != "b" || snaps[2].Name != "idle" {
		t.Fatalf("snapshots = %+v, want a,b,idle in registration order", snaps)
	}
	for _, qs := range snaps {
		if qs.Stats.Updates != applied {
			t.Errorf("query %q updates = %d, want %d", qs.Name, qs.Stats.Updates, applied)
		}
		if got := m.Engine(qs.Name).lat.Count(); got != uint64(applied) {
			t.Errorf("query %q holds %d latency samples for %d updates", qs.Name, got, applied)
		}
		if qs.Name == "idle" {
			if qs.Visited != 0 || qs.Stats.SafeByLabel != applied || qs.Max != 0 {
				t.Errorf("idle: visited %d, %d label-safe, max %v; want 0, %d, 0", qs.Visited, qs.Stats.SafeByLabel, qs.Max, applied)
			}
			continue
		}
		if qs.Max <= 0 {
			t.Errorf("query %q has no latency quantiles", qs.Name)
		}
		if qs.P50 > qs.P90 || qs.P90 > qs.P99 || qs.P99 > qs.Max {
			t.Errorf("query %q quantiles not monotone: %v %v %v %v", qs.Name, qs.P50, qs.P90, qs.P99, qs.Max)
		}
	}

	if !m.Deregister("a") {
		t.Fatal("deregister failed")
	}
	if snaps := m.QuerySnapshots(); len(snaps) != 2 || snaps[0].Name != "b" {
		t.Fatalf("snapshots after deregister = %+v, want b,idle", snaps)
	}
}

// sharedAllocsPerUpdate measures steady-state allocations per update of
// batch — which must leave the 6-vertex graph as it found it — through the
// full serving-mode path (ProcessBatchLogged over a MultiEngine with nq
// registered queries, every one visited by every update), with the
// allocation-free probe algorithm isolating the driver's own cost.
func sharedAllocsPerUpdate(t *testing.T, nq int, batch stream.Stream, bt *BatchTimes, opts ...Option) float64 {
	t.Helper()
	g := graph.New(0)
	for i := 0; i < 6; i++ {
		g.AddVertex(0)
	}
	opts = append([]Option{Threads(1), InterUpdate(false)}, opts...)
	m := NewMulti(opts...)
	defer m.Close()
	if err := m.Init(g); err != nil {
		t.Fatal(err)
	}
	q, err := query.New([]graph.Label{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := q.AddEdge(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := q.AddEdge(1, 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := q.Finalize(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nq; i++ {
		if err := m.RegisterLive(fmt.Sprintf("probe%d", i), &allocProbeAlgo{roots: 4}, q); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	cycle := func() {
		if _, err := m.ProcessBatchLogged(ctx, batch, bt, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(200, cycle) / float64(len(batch))
	for name, st := range m.Stats() {
		if st.Positive == 0 || st.Positive != st.Negative {
			t.Fatalf("%s was not visited: %+v", name, countsOf(st))
		}
	}
	if (m.pool != nil) != (nq > 1) {
		t.Fatalf("%d queries: driver pool started = %v", nq, m.pool != nil)
	}
	return allocs
}

// dispatchedAllocsPerUpdate is sharedAllocsPerUpdate for the dispatch index:
// 64 standing GraphFlow and NewSP queries over disjoint label pairs, with
// the classifier on, and a batch two thirds of whose edges reach one query
// and the rest none — so nearly every (query, update) pair is accounted in
// bulk.
func dispatchedAllocsPerUpdate(t *testing.T, opts ...Option) float64 {
	t.Helper()
	const nq = 64
	g := graph.New(0)
	for l := 0; l < 2*nq; l++ {
		g.AddVertex(graph.Label(l)) // vertex v carries label v
	}
	m := NewMulti(append([]Option{Threads(1)}, opts...)...)
	defer m.Close()
	if err := m.Init(g); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nq; i++ {
		f := algotest.Factories()[2+i%2] // GraphFlow, NewSP
		q := pathQuery(t, graph.Label(2*i), graph.Label(2*i+1))
		if err := m.RegisterLive(fmt.Sprintf("q%d", i), f.New(), q); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	batch := stream.Stream{
		{Op: stream.AddEdge, U: 4, V: 5},   // q2
		{Op: stream.AddEdge, U: 9, V: 8},   // q4
		{Op: stream.AddEdge, U: 10, V: 20}, // nobody
		{Op: stream.DeleteEdge, U: 4, V: 5},
		{Op: stream.DeleteEdge, U: 9, V: 8},
		{Op: stream.DeleteEdge, U: 10, V: 20},
	}
	cycle := func() {
		if _, err := m.ProcessBatch(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(200, cycle) / float64(len(batch))
	dc := m.DispatchCounters()
	if want := uint64(dc.Updates) * nq; dc.Visited+dc.Skipped != want || 3*dc.Visited != 2*uint64(dc.Updates) {
		t.Fatalf("dispatch counters %+v: want 2 pairs visited per 3 updates, of %d", dc, want)
	}
	if st := m.Stats()["q2"]; st.Updates != dc.Updates || st.Positive == 0 || st.Positive != st.Negative {
		t.Fatalf("q2 after %d updates: %+v", dc.Updates, countsOf(st))
	}
	return allocs
}

// TestSharedPathAllocations pins the serving-path zero-allocation
// guarantee end to end at the driver level: with no tracer the lockstep
// ProcessBatch path performs zero allocations per update, and attaching
// a tracer — stage clocks, stage histograms, ring events, queue
// timestamps — adds none. Nor does the dispatch index: building an update's
// visit list and accounting the 60-odd queries it leaves out allocate
// nothing, traced or not. Nor does Window(8), whose pre-pass coalesces
// into reused buffers: two windows, one annihilated pair in each. Nor does
// an update that visits two queries: the fan-out runs on parked workers.
func TestSharedPathAllocations(t *testing.T) {
	if n := dispatchedAllocsPerUpdate(t); n != 0 {
		t.Errorf("dispatched shared path allocates %.2f per update, want 0", n)
	}
	if n := dispatchedAllocsPerUpdate(t, WithTracer(obs.NewTracer(64))); n != 0 {
		t.Errorf("traced dispatched shared path allocates %.2f per update, want 0", n)
	}
	add := func(u, v graph.VertexID) stream.Update { return stream.Update{Op: stream.AddEdge, U: u, V: v} }
	del := func(u, v graph.VertexID) stream.Update { return stream.Update{Op: stream.DeleteEdge, U: u, V: v} }
	for _, tc := range []struct {
		name  string
		nq    int
		batch stream.Stream
		opts  []Option
	}{
		{"per-update", 1, stream.Stream{add(0, 1), del(0, 1)}, nil},
		{"Window(8)", 1, stream.Stream{
			add(0, 1), add(1, 2), add(2, 3), del(0, 1), add(3, 4), add(4, 5), add(0, 2), add(1, 3),
			del(1, 2), del(2, 3), del(3, 4), del(4, 5), del(0, 2), del(1, 3), add(0, 5), del(0, 5),
		}, []Option{Window(8)}},
		{"two visited queries", 2, stream.Stream{add(0, 1), del(0, 1)}, []Option{Threads(2)}},
	} {
		now := time.Now()
		bt := &BatchTimes{Flushed: now}
		for range tc.batch {
			bt.Enqueued = append(bt.Enqueued, now)
			bt.Dequeued = append(bt.Dequeued, now)
		}
		traced := func() []Option { return append([]Option{WithTracer(obs.NewTracer(64))}, tc.opts...) }
		if n := sharedAllocsPerUpdate(t, tc.nq, tc.batch, nil, tc.opts...); n != 0 {
			t.Errorf("%s: nil-tracer shared path allocates %.2f per update, want 0", tc.name, n)
		}
		if n := sharedAllocsPerUpdate(t, tc.nq, tc.batch, nil, traced()...); n != 0 {
			t.Errorf("%s: traced shared path allocates %.2f per update, want 0", tc.name, n)
		}
		if n := sharedAllocsPerUpdate(t, tc.nq, tc.batch, bt, traced()...); n != 0 {
			t.Errorf("%s: traced+timed shared path allocates %.2f per update, want 0", tc.name, n)
		}
	}
}
