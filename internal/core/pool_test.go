package core

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"paracosm/internal/csm"
	"paracosm/internal/graph"
	"paracosm/internal/query"
	"paracosm/internal/stream"
)

// treeAlgo is a synthetic csm.Algorithm with a fully controlled search
// tree, independent of the graph: Roots emits one leaf plus one "chain"
// state; a chain state with Order k expands into width leaves and one
// chain child with Order k-1. Terminal states (Order 0) count one match.
// slow delays every chain expansion, making the chain subtree the
// deliberately skewed long pole of the tree.
type treeAlgo struct {
	width int
	depth int
	slow  time.Duration
}

func (a *treeAlgo) Name() string                               { return "tree" }
func (a *treeAlgo) Build(g *graph.Graph, q *query.Graph) error { return nil }
func (a *treeAlgo) UpdateADS(upd stream.Update)                {}
func (a *treeAlgo) AffectsADS(upd stream.Update) bool          { return true }

func (a *treeAlgo) Roots(upd stream.Update, emit func(csm.State)) {
	emit(csm.State{Order: uint16(a.depth), Depth: 2}) // chain seed
	emit(csm.State{Order: 0, Depth: 2})               // plain leaf
}

func (a *treeAlgo) Expand(s *csm.State, emit func(csm.State)) {
	if a.slow > 0 {
		time.Sleep(a.slow)
	}
	for i := 0; i < a.width; i++ {
		emit(csm.State{Order: 0, Depth: s.Depth + 1})
	}
	emit(csm.State{Order: s.Order - 1, Depth: s.Depth + 1})
}

func (a *treeAlgo) Terminal(s *csm.State) (uint64, bool) {
	if s.Order == 0 {
		return 1, true
	}
	return 0, false
}

// treeGraph is the trivial 4-vertex graph and 3-vertex path query the
// synthetic algorithms (treeAlgo, allocProbeAlgo) run over.
func treeGraph(t *testing.T) (*graph.Graph, *query.Graph) {
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
	return g, q
}

// treeEngine builds an engine around a synthetic algorithm over
// treeGraph's pair.
func treeEngine(t *testing.T, a csm.Algorithm, opts ...Option) (*Engine, *graph.Graph) {
	t.Helper()
	g, q := treeGraph(t)
	eng := New(a, opts...)
	if err := eng.Init(g, q); err != nil {
		t.Fatal(err)
	}
	return eng, g
}

// TestPoolGoroutinesStableAcrossStream: escalated updates must reuse the
// persistent pool — the goroutine count may grow once (pool start) and
// must then stay flat across a 1000-update stream. (Whether a worker ever
// parks in an escalation is up to the scheduler here, since the caller
// may drain a small tree before one joins; TestStarvationResplitBubbled
// holds the park counts.)
func TestPoolGoroutinesStableAcrossStream(t *testing.T) {
	a := &treeAlgo{width: 4, depth: 8}
	eng, _ := treeEngine(t, a, Threads(4), InterUpdate(false), EscalateNodes(4), SplitDepth(100))
	defer eng.Close()
	ctx := context.Background()

	flip := func(i int) stream.Update {
		if i%2 == 0 {
			return stream.Update{Op: stream.AddEdge, U: 0, V: 1}
		}
		return stream.Update{Op: stream.DeleteEdge, U: 0, V: 1}
	}
	if _, err := eng.ProcessUpdate(ctx, flip(0)); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for i := 1; i <= 1000; i++ {
		if _, err := eng.ProcessUpdate(ctx, flip(i)); err != nil {
			t.Fatal(err)
		}
	}
	if now := runtime.NumGoroutine(); now > base+2 {
		t.Fatalf("goroutines grew across 1000 updates: %d -> %d", base, now)
	}
	st := eng.Stats()
	if st.Escalations < 1000 {
		t.Fatalf("only %d/1001 updates escalated; workload misconfigured", st.Escalations)
	}

	// Close joins the workers; goroutines the test runtime itself started
	// meanwhile may take a moment to wind down, so allow the count a
	// bounded settle rather than a fixed sleep.
	eng.Close()
	now := runtime.NumGoroutine()
	for settle := time.Now().Add(2 * time.Second); now > base && time.Now().Before(settle); now = runtime.NumGoroutine() {
		runtime.Gosched()
	}
	if now > base {
		t.Fatalf("Close did not release pool goroutines: %d -> %d", base, now)
	}
}

// starvationRun processes one update of a deep skewed chain with instant
// sibling leaves at the given thread count and returns the engine's Stats
// and the update's matches.
func starvationRun(t *testing.T, threads int) (Stats, uint64) {
	a := &treeAlgo{width: 3, depth: 100, slow: 200 * time.Microsecond}
	eng, _ := treeEngine(t, a, Threads(threads), InterUpdate(false),
		EscalateNodes(4), SplitDepth(200))
	defer eng.Close()
	d, err := eng.ProcessUpdate(context.Background(), stream.Update{Op: stream.AddEdge, U: 0, V: 1})
	if err != nil {
		t.Fatal(err)
	}
	return eng.Stats(), d.Positive
}

// TestStarvationResplit: on a deep skewed chain, the pooled run's
// match/node counts equal the sequential run's exactly, and its counters
// reconcile: every donation and every park belongs to the one escalation.
// Whether the idle searcher triggers a re-split is up to the scheduler
// here; TestStarvationResplitBubbled holds that verdict.
func TestStarvationResplit(t *testing.T) {
	seqStats, seqMatches := starvationRun(t, 1)
	parStats, parMatches := starvationRun(t, 2)
	if parMatches != seqMatches || parStats.Nodes != seqStats.Nodes {
		t.Fatalf("pooled run (+%d, %d nodes) != sequential (+%d, %d nodes)",
			parMatches, parStats.Nodes, seqMatches, seqStats.Nodes)
	}
	if parStats.Escalations != 1 || len(parStats.ThreadBusy) != 2 {
		t.Fatalf("escalations = %d, %d busy slots; want 1 escalation on 2 slots", parStats.Escalations, len(parStats.ThreadBusy))
	}
	if parStats.Parks != parStats.Wakeups {
		t.Fatalf("parks %d and wakeups %d do not pair up", parStats.Parks, parStats.Wakeups)
	}
}

// TestEngineCloseSemantics: Close is idempotent, works on engines that
// never escalated, and the engine stays usable afterwards (the pool
// restarts lazily on the next escalation).
func TestEngineCloseSemantics(t *testing.T) {
	fresh := New(&treeAlgo{width: 2, depth: 2})
	fresh.Close() // never initialized, never escalated: must be a no-op
	fresh.Close()

	a := &treeAlgo{width: 4, depth: 8}
	eng, _ := treeEngine(t, a, Threads(3), InterUpdate(false), EscalateNodes(4), SplitDepth(100))
	ctx := context.Background()
	upd := stream.Update{Op: stream.AddEdge, U: 0, V: 1}
	d1, err := eng.ProcessUpdate(ctx, upd)
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
	eng.Close() // idempotent

	// Submit after Close at the engine level: the pool restarts lazily and
	// the update processes identically.
	d2, err := eng.ProcessUpdate(ctx, stream.Update{Op: stream.DeleteEdge, U: 0, V: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d2.Negative != d1.Positive {
		t.Fatalf("post-Close update found %d matches, pre-Close %d", d2.Negative, d1.Positive)
	}
	eng.Close()
}

// TestTimeoutContract: an expired deadline mid-search must return
// csm.ErrDeadline with the graph mutation applied — the edge present after
// AddEdge, absent after DeleteEdge — and a partial (lower-bound) Delta.
func TestTimeoutContract(t *testing.T) {
	// ~50*51+2 nodes per search: the sequential phase's deadline probe
	// (every 1024 nodes) fires mid-tree.
	a := &treeAlgo{width: 50, depth: 50}
	eng, g := treeEngine(t, a, Threads(1), InterUpdate(false))
	defer eng.Close()

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel()

	// AddEdge: mutation applied before the search; must survive timeout.
	d, err := eng.ProcessUpdate(expired, stream.Update{Op: stream.AddEdge, U: 0, V: 1})
	if err != csm.ErrDeadline {
		t.Fatalf("AddEdge err = %v, want ErrDeadline", err)
	}
	if !g.HasEdge(0, 1) {
		t.Fatal("AddEdge timeout rolled back the mutation; contract says applied")
	}
	if d.Positive >= 50*51+2 {
		t.Fatalf("timed-out delta reports a full result (+%d)", d.Positive)
	}

	// DeleteEdge: find phase times out first, mutation must still apply.
	d, err = eng.ProcessUpdate(expired, stream.Update{Op: stream.DeleteEdge, U: 0, V: 1})
	if err != csm.ErrDeadline {
		t.Fatalf("DeleteEdge err = %v, want ErrDeadline", err)
	}
	if g.HasEdge(0, 1) {
		t.Fatal("DeleteEdge timeout left the edge in the graph; contract says applied")
	}
	if d.Negative >= 50*51+2 {
		t.Fatalf("timed-out delta reports a full result (-%d)", d.Negative)
	}

	// The stream can continue after a deadline error: a fresh context
	// processes the next update normally.
	if _, err := eng.ProcessUpdate(context.Background(), stream.Update{Op: stream.AddEdge, U: 2, V: 3}); err != nil {
		t.Fatalf("engine unusable after timeout: %v", err)
	}

	// The same contract where leaves are counted, not visited.
	t.Run("counted-last-level", timeoutInsideCountedLevel)
}

// TestTimeoutAbortsEveryWorker: a deadline that has passed stops the whole
// parallel phase within one poll interval per searcher — the caller hands
// over after its one budgeted node, every worker looks at the clock once
// it has explored pollEvery nodes, and the abort flag keeps the rest of the
// queue from being started — with the update applied and a partial delta,
// as the timeout contract says.
func TestTimeoutAbortsEveryWorker(t *testing.T) {
	const threads = 4
	a := &treeAlgo{width: 50, depth: 4000} // ~200k nodes if left to finish
	eng, g := treeEngine(t, a, Threads(threads), InterUpdate(false), EscalateNodes(1), SplitDepth(100))
	defer eng.Close()

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel()
	d, err := eng.ProcessUpdate(expired, stream.Update{Op: stream.AddEdge, U: 0, V: 1})
	if err != csm.ErrDeadline {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if !g.HasEdge(0, 1) {
		t.Fatal("timeout rolled back the mutation; contract says applied")
	}
	if limit := uint64(1 + threads*pollEvery); d.Nodes > limit {
		t.Fatalf("explored %d nodes after the deadline, want at most %d (one poll interval per worker)", d.Nodes, limit)
	}
	if st := eng.Stats(); st.Escalations != 1 {
		t.Fatalf("escalations = %d, want 1: the abort must come from the workers", st.Escalations)
	}

	// The engine is intact: without a deadline the inverse update explores
	// the whole tree.
	d, err = eng.ProcessUpdate(context.Background(), stream.Update{Op: stream.DeleteEdge, U: 0, V: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(50*4000 + 4000 + 2); d.Nodes != want {
		t.Fatalf("post-timeout update explored %d nodes, want %d", d.Nodes, want)
	}
}

// TestEscalatedUpdateAllocations pins the parallel phase's allocation
// contract: once the pool runs and the stacks have grown, an escalated
// ProcessUpdate — sequential phase, span hand-over, pool epoch, donation,
// fold — allocates nothing, however large the search tree.
func TestEscalatedUpdateAllocations(t *testing.T) {
	allocs := func(depth int) (float64, uint64) {
		a := &treeAlgo{width: 4, depth: depth}
		eng, _ := treeEngine(t, a, Threads(2), InterUpdate(false), EscalateNodes(4), SplitDepth(1<<16))
		defer eng.Close()
		ctx := context.Background()
		add := stream.Update{Op: stream.AddEdge, U: 0, V: 1}
		del := stream.Update{Op: stream.DeleteEdge, U: 0, V: 1}
		var nodes uint64
		cycle := func() {
			d, err := eng.ProcessUpdate(ctx, add)
			if err != nil {
				t.Fatal(err)
			}
			nodes = d.Nodes
			if _, err := eng.ProcessUpdate(ctx, del); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 16; i++ { // pool spin-up, stacks, queue, ThreadBusy
			cycle()
		}
		before := eng.Stats().Escalations
		n := testing.AllocsPerRun(100, cycle)
		if got := eng.Stats().Escalations - before; got != 2*101 { // AllocsPerRun warms up once
			t.Fatalf("%d of %d measured updates escalated", got, 2*101)
		}
		return n, nodes
	}
	small, smallNodes := allocs(20)
	large, largeNodes := allocs(400)
	if largeNodes < 10*smallNodes {
		t.Fatalf("trees of %d and %d nodes are less than 10x apart", smallNodes, largeNodes)
	}
	if small != 0 || large != 0 {
		t.Fatalf("escalated update allocates %.0f times on a %d-node tree, %.0f on a %d-node tree; want 0 on both",
			small, smallNodes, large, largeNodes)
	}
}

// TestSequentialPhaseAttributedToSlotZero: every update's sequential find
// phase must land in ThreadBusy[0], and an escalated epoch has one slot per
// searcher it may run: Threads, the caller's included. (Whether the worker
// slot fills is up to the scheduler here; TestStarvationResplitBubbled
// holds it.)
func TestSequentialPhaseAttributedToSlotZero(t *testing.T) {
	a := &treeAlgo{width: 4, depth: 30}
	eng, _ := treeEngine(t, a, Threads(2), InterUpdate(false), EscalateNodes(8), SplitDepth(100))
	defer eng.Close()
	if _, err := eng.ProcessUpdate(context.Background(), stream.Update{Op: stream.AddEdge, U: 0, V: 1}); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if len(st.ThreadBusy) != 2 {
		t.Fatalf("ThreadBusy has %d slots, want 2 (caller + 1 worker)", len(st.ThreadBusy))
	}
	if st.ThreadBusy[0] <= 0 {
		t.Fatal("sequential phase not attributed to ThreadBusy[0]")
	}
}

// TestMultiEngineOnePool: 128 standing queries at Threads(2), every one
// escalating, run on the driver's one pool — max(GOMAXPROCS, Threads)-1
// workers — not on a fan-out pool plus two workers per query.
func TestMultiEngineOnePool(t *testing.T) {
	g, q := treeGraph(t)
	base := runtime.NumGoroutine()
	m := NewMulti(Threads(2), InterUpdate(false), EscalateNodes(4), SplitDepth(100))
	defer m.Close()
	if err := m.Init(g); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		if err := m.RegisterLive(fmt.Sprintf("q%d", i), &treeAlgo{width: 4, depth: 8}, q); err != nil {
			t.Fatal(err)
		}
	}
	s := stream.Stream{{Op: stream.AddEdge, U: 0, V: 1}, {Op: stream.DeleteEdge, U: 0, V: 1}}
	if err := m.Run(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	grown := runtime.NumGoroutine() - base
	for name, st := range m.Stats() {
		if st.Escalations != 2 {
			t.Fatalf("%s escalated %d of 2 updates", name, st.Escalations)
		}
	}
	if limit := runtime.GOMAXPROCS(0) + 2; grown > limit {
		t.Fatalf("128 escalating queries grew %d goroutines, want at most %d", grown, limit)
	}
}

// slotAlgo is treeAlgo recording, per update, the searcher slots its nodes
// are expanded on and the most expansions under way at once.
type slotAlgo struct {
	treeAlgo
	seen     [256]atomic.Bool
	in, most atomic.Int32
}

func (a *slotAlgo) Expand(s *csm.State, emit func(csm.State)) {
	a.seen[s.Slot].Store(true)
	k := a.in.Add(1)
	for m := a.most.Load(); k > m && !a.most.CompareAndSwap(m, k); m = a.most.Load() {
	}
	a.treeAlgo.Expand(s, emit)
	a.in.Add(-1)
}

// slots reports the slots seen and the peak concurrency since the last
// call, and starts the next count.
func (a *slotAlgo) slots() (seen []int, most int32) {
	for k := range a.seen {
		if a.seen[k].Swap(false) {
			seen = append(seen, k)
		}
	}
	return seen, a.most.Swap(0)
}

// slotEngine registers a slotAlgo as the one query of a MultiEngine at
// Threads(2) whose pool is larger: 8 goroutines, at GOMAXPROCS 8.
func slotEngine(t *testing.T, a *slotAlgo) *MultiEngine {
	t.Helper()
	prev := runtime.GOMAXPROCS(8)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	g, q := treeGraph(t)
	m := NewMulti(Threads(2), InterUpdate(false), EscalateNodes(4), SplitDepth(200))
	t.Cleanup(m.Close)
	if err := m.Init(g); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterLive("slots", a, q); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestThreadsCapsEscalationSlots: Threads(n) caps one update's searchers
// at n goroutines, the caller included, however many workers the driver's
// pool has idle — a skewed chain keeps donating work they could take.
func TestThreadsCapsEscalationSlots(t *testing.T) {
	a := &slotAlgo{treeAlgo: treeAlgo{width: 3, depth: 100, slow: 50 * time.Microsecond}}
	m := slotEngine(t, a)
	if err := m.Run(context.Background(), stream.Stream{{Op: stream.AddEdge, U: 0, V: 1}}); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats()["slots"]; st.Escalations != 1 {
		t.Fatalf("escalations = %d, want 1", st.Escalations)
	}
	if seen, most := a.slots(); len(seen) > 2 || seen[len(seen)-1] > 1 || most > 2 {
		t.Fatalf("Threads(2) update searched on slots %v, %d at once; want at most slots 0 and 1", seen, most)
	}
}

// TestBackToBackEscalationsStaleSeats: an escalation's job is reused by the
// engine's next one, and a seat the last run offered may still be queued
// when the next begins. A worker reaching it must not join the later run,
// which would then search on more goroutines and slots than Threads.
func TestBackToBackEscalationsStaleSeats(t *testing.T) {
	a := &slotAlgo{treeAlgo: treeAlgo{width: 4, depth: 8}}
	m := slotEngine(t, a)
	ctx := context.Background()
	for i := 0; i < 500; i++ {
		op := stream.AddEdge
		if i%2 == 1 {
			op = stream.DeleteEdge
		}
		if err := m.Run(ctx, stream.Stream{{Op: op, U: 0, V: 1}}); err != nil {
			t.Fatal(err)
		}
		if seen, most := a.slots(); seen[len(seen)-1] > 1 || most > 2 {
			t.Fatalf("update %d searched on slots %v, %d at once; want at most slots 0 and 1", i, seen, most)
		}
	}
	if st := m.Stats()["slots"]; st.Escalations != 500 {
		t.Fatalf("escalations = %d, want 500", st.Escalations)
	}
}
