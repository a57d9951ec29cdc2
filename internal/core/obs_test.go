package core

import (
	"context"
	"math/rand"
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

// TestTracerReconcilesWithStats runs the full inter-update path with a
// tracer attached and checks that what the tracer holds — phase histogram
// samples and ring events — agrees with Engine.Stats() at end of stream.
func TestTracerReconcilesWithStats(t *testing.T) {
	for _, f := range algotest.Factories()[:2] {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			g := algotest.RandomGraph(rng, 60, 500, 2, 1)
			q := algotest.RandomQuery(rng, g, 4)
			s := algotest.RandomStream(rng, g, 400, 0.7, 1)

			tr := obs.NewTracer(64) // deliberately smaller than the stream: exercises drops
			eng := New(f.New(), Threads(4), InterUpdate(true), EscalateNodes(16), WithTracer(tr))
			defer eng.Close()
			if err := eng.Init(g, q); err != nil {
				t.Fatal(err)
			}
			st, err := eng.Run(context.Background(), s)
			if err != nil {
				t.Fatal(err)
			}

			if got := tr.Hist(obs.PhaseTotal).Count(); got != uint64(st.Updates) {
				t.Errorf("latency histogram count %d != updates %d", got, st.Updates)
			}
			if total := uint64(tr.Ring().Len()) + tr.Ring().Dropped(); total != uint64(st.Updates) {
				t.Errorf("ring total %d != updates %d", total, st.Updates)
			}
			if want := uint64(st.Updates) - 64; tr.Ring().Dropped() != want {
				t.Errorf("ring dropped %d, want %d", tr.Ring().Dropped(), want)
			}
			// Every retained event carries a real class and phase times
			// that sum into the histograms.
			for _, ev := range tr.Ring().Snapshot() {
				switch ev.Class {
				case obs.ClassUnsafe, obs.ClassSafeLabel, obs.ClassSafeDegree, obs.ClassSafeADS, obs.ClassVertex:
				default:
					t.Fatalf("unexpected class %q on batch path", ev.Class)
				}
				if ev.Seq == 0 {
					t.Fatal("event missing sequence number")
				}
			}
		})
	}
}

// TestTracerDirectPath checks the InterUpdate-disabled path: every event
// is ClassDirect and escalations are flagged on the events themselves.
func TestTracerDirectPath(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := algotest.RandomGraph(rng, 50, 500, 1, 1)
	q := algotest.RandomQuery(rng, g, 4)
	s := algotest.RandomStream(rng, g, 100, 0.8, 1)

	tr := obs.NewTracer(256)
	f := algotest.Factories()[0]
	eng := New(f.New(), Threads(4), InterUpdate(false), EscalateNodes(8), WithTracer(tr))
	defer eng.Close()
	if err := eng.Init(g, q); err != nil {
		t.Fatal(err)
	}
	st, err := eng.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	evs := tr.Ring().Snapshot()
	if len(evs) != st.Updates {
		t.Fatalf("ring has %d events, want %d", len(evs), st.Updates)
	}
	escalated := 0
	for _, ev := range evs {
		if ev.Class != obs.ClassDirect {
			t.Fatalf("event class %q, want direct", ev.Class)
		}
		if ev.Escalated {
			escalated++
			if ev.Nodes <= 8 {
				t.Errorf("escalated event with only %d nodes (budget 8)", ev.Nodes)
			}
		}
	}
	if escalated != st.Escalations {
		t.Errorf("escalated events %d != stats escalations %d", escalated, st.Escalations)
	}
	if st.Escalations == 0 {
		t.Error("test workload never escalated; budget too high to be meaningful")
	}
}

// TestTracerTimeoutEvent locks in that deadline-aborted updates are
// flagged in the trace and counted in Stats.Timeouts.
func TestTracerTimeoutEvent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := algotest.RandomGraph(rng, 80, 1200, 1, 1)
	q := algotest.RandomQuery(rng, g, 5)
	s := algotest.RandomStream(rng, g, 50, 1.0, 1)

	tr := obs.NewTracer(128)
	f := algotest.Factories()[0]
	eng := New(f.New(), Threads(1), InterUpdate(false), WithTracer(tr))
	defer eng.Close()
	if err := eng.Init(g, q); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	var sawTimeout bool
	for _, upd := range s {
		if _, err := eng.ProcessUpdate(ctx, upd); err == csm.ErrDeadline {
			sawTimeout = true
			break
		}
	}
	if !sawTimeout {
		t.Skip("workload produced no search work before the deadline")
	}
	evs := tr.Ring().Snapshot()
	last := evs[len(evs)-1]
	if !last.Timeout {
		t.Fatalf("deadline-aborted update not flagged: %+v", last)
	}
	if st := eng.Stats(); st.Timeouts != 1 {
		t.Fatalf("Stats.Timeouts = %d after one deadline-aborted update, want 1", st.Timeouts)
	}
}

// TestStatsConcurrentWithProcessUpdate hammers Stats()/ResetStats()
// concurrently with a ProcessUpdate loop. Run under -race, it locks in
// the snapshot semantics of the ThreadBusy copy in Engine.Stats: readers
// always observe a consistent copy, never the live slice the workers
// append into.
func TestStatsConcurrentWithProcessUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := algotest.RandomGraph(rng, 60, 600, 1, 1)
	q := algotest.RandomQuery(rng, g, 4)
	s := algotest.RandomStream(rng, g, 300, 0.7, 1)

	f := algotest.Factories()[0]
	tr := obs.NewTracer(32)
	eng := New(f.New(), Threads(4), InterUpdate(false), EscalateNodes(16), WithTracer(tr))
	defer eng.Close()
	if err := eng.Init(g, q); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(reset bool) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := eng.Stats()
				// Touch the snapshot so the race detector sees the read
				// of every slot; also verify the copy is self-consistent
				// (appending workers must never be visible mid-flight).
				var sum time.Duration
				for _, b := range st.ThreadBusy {
					sum += b
				}
				_ = sum
				if reset {
					eng.ResetStats()
				}
			}
		}(i == 2)
	}

	ctx := context.Background()
	for _, upd := range s {
		if _, err := eng.ProcessUpdate(ctx, upd); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// allocProbeAlgo is an intentionally allocation-free Algorithm: Roots
// emits a fixed number of states, Expand nothing, Terminal matches
// immediately. It isolates the engine's own per-update allocations so
// the nil-tracer zero-extra-allocation guarantee is testable without
// noise from algorithm internals.
type allocProbeAlgo struct{ roots int }

func (a *allocProbeAlgo) Name() string                           { return "allocprobe" }
func (a *allocProbeAlgo) Build(*graph.Graph, *query.Graph) error { return nil }
func (a *allocProbeAlgo) UpdateADS(stream.Update)                {}
func (a *allocProbeAlgo) AffectsADS(stream.Update) bool          { return true }
func (a *allocProbeAlgo) RebuildADS() bool                       { return true }
func (a *allocProbeAlgo) Roots(_ stream.Update, emit func(csm.State)) {
	for i := 0; i < a.roots; i++ {
		emit(csm.State{Depth: 2})
	}
}
func (a *allocProbeAlgo) Expand(*csm.State, func(csm.State)) {}
func (a *allocProbeAlgo) Terminal(*csm.State) (uint64, bool) { return 1, true }

// allocCycle is the insert/delete pair the allocation tests cycle through.
var allocCycle = stream.Stream{
	{Op: stream.AddEdge, U: 0, V: 1},
	{Op: stream.DeleteEdge, U: 0, V: 1},
}

func allocsPerUpdate(t *testing.T, opts ...Option) float64 {
	t.Helper()
	eng, _ := treeEngine(t, &allocProbeAlgo{roots: 4}, append([]Option{Threads(1), InterUpdate(false)}, opts...)...)
	defer eng.Close()
	ctx := context.Background()
	cycle := func() {
		for _, upd := range allocCycle {
			if _, err := eng.ProcessUpdate(ctx, upd); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm up: first cycle grows adjacency slices, ThreadBusy, the stack.
	for i := 0; i < 16; i++ {
		cycle()
	}
	return testing.AllocsPerRun(200, cycle) / 2 // two updates per cycle
}

// allocsPerRun measures one Engine.Run over a 64-update stream with the
// classifier on (every update is unsafe for allocProbeAlgo, so every one
// runs the full path).
func allocsPerRun(t *testing.T) float64 {
	t.Helper()
	eng, _ := treeEngine(t, &allocProbeAlgo{roots: 4}, Threads(1), InterUpdate(true))
	defer eng.Close()
	var s stream.Stream
	for i := 0; i < 32; i++ {
		s = append(s, allocCycle...)
	}
	ctx := context.Background()
	run := func() {
		if _, err := eng.Run(ctx, s); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		run()
	}
	if st := eng.Stats(); st.UnsafeUpdates < len(s) {
		t.Fatalf("%d unsafe updates over %d updates; the classifier went untested", st.UnsafeUpdates, len(s))
	}
	return testing.AllocsPerRun(50, run)
}

// TestProcessUpdateAllocations is the hot-path guarantee of the
// observability layer: with no tracer configured ProcessUpdate performs
// zero allocations per update, and even an attached tracer adds none
// (events are stack-built, the ring is preallocated, histogram memory is
// fixed). The nil-callback cases also lock in the match-delta hook's
// contract: an unset OnDelta costs one branch and no allocations, and
// even a set callback (stack-passed value args, closure built once)
// stays allocation-free. The same holds through Run with the classifier
// on: a whole Run allocates only the Stats snapshot it returns.
func TestProcessUpdateAllocations(t *testing.T) {
	nilAllocs := allocsPerUpdate(t)
	tracedAllocs := allocsPerUpdate(t, WithTracer(obs.NewTracer(64)))
	var deltaUpdates uint64
	deltaAllocs := allocsPerUpdate(t, WithOnDelta(func(upd stream.Update, d csm.Delta, timeout bool) {
		deltaUpdates += d.Positive + d.Negative + 1
	}))
	if nilAllocs != 0 {
		t.Errorf("nil-tracer path allocates %.2f per update, want 0", nilAllocs)
	}
	if tracedAllocs != 0 {
		t.Errorf("traced path allocates %.2f per update, want 0", tracedAllocs)
	}
	if deltaAllocs != 0 {
		t.Errorf("OnDelta path allocates %.2f per update, want 0", deltaAllocs)
	}
	if deltaUpdates == 0 {
		t.Error("OnDelta callback never fired")
	}
	if n := allocsPerRun(t); n > 1 {
		t.Errorf("Run with InterUpdate allocates %.0f times per call, want at most 1 (the returned Stats)", n)
	}
}
