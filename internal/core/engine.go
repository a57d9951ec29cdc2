package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"paracosm/internal/concurrent"
	"paracosm/internal/csm"
	"paracosm/internal/graph"
	"paracosm/internal/obs"
	"paracosm/internal/query"
	"paracosm/internal/stream"
)

// Engine is a ParaCOSM instance wrapping a single CSM algorithm.
type Engine struct {
	cfg  Config
	algo csm.Algorithm

	// leaves is algo's csm.LeafCounter capability, nil when it declares
	// none; drain counts the last level through it while OnMatch is nil.
	leaves csm.LeafCounter

	// OnMatch, if non-nil, observes every reported match. Invocations are
	// serialized; the callback must not retain the state pointer.
	OnMatch csm.MatchFunc

	stats   Stats // guarded by statsMu
	statsMu sync.Mutex
	matchMu sync.Mutex

	// searchers is the private scratch of every goroutine that searches
	// for this engine (see inner.go): slot 0 is the caller, slot k the
	// pool worker on seat k of an escalation's job. The worker slots are
	// added by the first parallel phase (ensureWorkers), so an engine that
	// never runs one — most of a MultiEngine's thousands — has one.
	searchers []*searcher
	// phase is the find phase in flight, shared by its searchers.
	phase searchPhase
	// spanTask is runSpan bound once, so handing it to the pool on every
	// escalation allocates no method value.
	spanTask func(int, []csm.State)
	job      concurrent.Job[csm.State] // the parallel phase, reused by every escalation

	// splitDepth is the effective SPLIT_DEPTH (auto-tuned from the query
	// size when Config.SplitDepth is 0).
	splitDepth int

	// simBudget is the simulated-time budget of the current Run (simulate
	// mode only; 0 when processing updates outside Run): commit fails the
	// update that takes the run's simulated time past it.
	simBudget time.Duration
	// simTasks and simFrontier are the simulator's reusable scratch: the
	// task costs of the escalated update being profiled, and (unbalanced
	// schedule) a copy of its frontier (see sim.go).
	simTasks    []uint64
	simFrontier []csm.State

	// pend is the update in flight between prepare and commit (see
	// pipeline.go). A driver runs one update per engine at a time, so it
	// needs no lock.
	pend pending

	// solo is a standalone engine's driver (Run, ProcessUpdate): a
	// MultiEngine holding this engine as its one query, over the graph
	// Init was given, not a clone. nil in the engines a MultiEngine drives.
	solo *MultiEngine
	drv  *MultiEngine // the driver stepping the engine (solo, or its MultiEngine): its pool runs escalations

	// lat, if non-nil, observes every processed update's latency — the
	// exact value accumulated into Stats.TTotal, at the same sites that
	// increment Stats.Updates, so lat.Count() == Stats.Updates by
	// construction. MultiEngine attaches one to every engine it registers
	// (see QuerySnapshots); a standalone engine carries none, costing one
	// predictable branch per update.
	lat *obs.Histogram
}

// New creates a ParaCOSM engine around algo.
func New(algo csm.Algorithm, opts ...Option) *Engine {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	cfg.normalize()
	return newEngine(algo, cfg)
}

// newEngine builds an engine from a normalized configuration.
func newEngine(algo csm.Algorithm, cfg Config) *Engine {
	e := &Engine{cfg: cfg, algo: algo}
	e.leaves, _ = algo.(csm.LeafCounter)
	e.searchers = []*searcher{newSearcher(e, 0)}
	e.spanTask = e.runSpan
	return e
}

// Config returns the engine's effective configuration.
func (e *Engine) Config() Config { return e.cfg }

// Algo returns the wrapped algorithm.
func (e *Engine) Algo() csm.Algorithm { return e.algo }

// Stats returns a snapshot of accumulated instrumentation.
func (e *Engine) Stats() Stats {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	s := e.stats
	s.ThreadBusy = append([]time.Duration(nil), e.stats.ThreadBusy...)
	return s
}

// totalElapsed reads Stats.TTotal alone. Hot loops (the per-update
// simulate-budget check in commit, the budget probe in
// findMatchesSimulated) use it instead of Stats(), which copies the whole
// struct plus the ThreadBusy slice on every call.
func (e *Engine) totalElapsed() time.Duration {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return e.stats.TTotal
}

// Close joins a standalone engine's driver pool (MultiEngine.Close); the
// engines a MultiEngine drives own no goroutine, so it does nothing there.
// Idempotent. Close must not overlap an in-flight ProcessUpdate/Run; the
// engine stays usable afterwards — the next escalation restarts the pool.
func (e *Engine) Close() {
	if e.solo != nil {
		e.solo.Close()
	}
}

// SeedStats folds base into the engine's accumulated instrumentation —
// the recovery path uses it to restore a query's pre-crash stats
// baseline from a snapshot, so /queries totals stay monotonic across a
// restart.
func (e *Engine) SeedStats(base Stats) {
	e.statsMu.Lock()
	e.stats.Add(base)
	e.statsMu.Unlock()
}

// addWindow books a driver call's windows into the engine's Stats.
func (e *Engine) addWindow(wc WindowCounters) {
	e.statsMu.Lock()
	e.stats.Window.add(wc)
	e.statsMu.Unlock()
}

// Init runs the offline stage of the wrapped algorithm on (g, q) and gives
// the engine its driver, which applies every update to g itself.
func (e *Engine) Init(g *graph.Graph, q *query.Graph) error {
	if err := e.build(g, q); err != nil {
		return err
	}
	m, mq := newDriver(e.cfg, g, e.cfg.Threads), &multiQuery{algo: e.algo, q: q, eng: e}
	m.mu.Lock()
	m.queries = append(m.queries, mq)
	m.dispatch.add(mq)
	m.mu.Unlock()
	e.solo, e.drv = m, m
	return nil
}

// build runs the offline stage of the wrapped algorithm on (g, q).
func (e *Engine) build(g *graph.Graph, q *query.Graph) error {
	if g == nil || q == nil {
		return fmt.Errorf("core: nil graph or query")
	}
	e.splitDepth = e.cfg.SplitDepth
	if e.splitDepth <= 0 {
		e.splitDepth = q.NumVertices() - 2
	}
	if e.splitDepth < 2 {
		e.splitDepth = 2
	}
	return e.algo.Build(g, q)
}

// ProcessUpdate runs one update through the engine's driver, the lockstep
// step over a query set of one (MultiEngine.stepLocked), and returns its
// delta. The step runs the pipeline (pipeline.go): prepare — classify the
// update when InterUpdate is on, and for a deletion on the full path
// enumerate the expiring matches while the edge still exists — then the
// mutation, then commit — ADS maintenance, new matches for an insertion,
// accounting, trace and OnDelta. A safe update skips both enumerations;
// an edge update the dispatch index rules out never reaches the engine
// and returns an empty Delta (DESIGN.md §13). Run is the same step in a
// loop, so one ProcessUpdate per update is a Run without a window: same
// deltas, same Stats.
//
// Timeout contract: when the context deadline expires mid-search,
// ProcessUpdate returns csm.ErrDeadline with the graph mutation and ADS
// maintenance APPLIED — for AddEdge the edge is in the graph, for
// DeleteEdge it is gone — so the engine's state stays consistent with the
// update having happened and the stream can continue past the deadline
// error. The returned Delta then holds only the matches found before the
// cutoff: a partial ΔM, i.e. a lower bound on the true incremental result.
// Both edge paths honor the same contract; only a mutation error (invalid
// update) leaves the graph untouched.
//
// TestProcessUpdateAllocations measures the zero-allocation contract at
// runtime; the directive below makes paracosmvet prove it at lint time.
//
//paracosm:noalloc
func (e *Engine) ProcessUpdate(ctx context.Context, upd stream.Update) (csm.Delta, error) {
	m := e.solo
	m.mu.Lock()
	defer m.mu.Unlock()
	e.pend.d = csm.Delta{} // what a skipped update returns
	m.all, m.live = m.queries, len(m.queries)
	m.stepLocked(ctx, upd, 0, 0, 0)
	m.endLocked()
	mq := m.queries[0]
	err := mq.fail.err
	mq.fail = failure{}
	return e.pend.d, err
}

// Run processes the whole stream through the engine's driver, over each
// window's coalesced survivors under Window(n) (window.go). An error names
// the failing update by its position in s. In simulate mode the context
// deadline is interpreted against simulated time: the run is aborted once
// accumulated simulated time exceeds the budget remaining at the first
// update.
func (e *Engine) Run(ctx context.Context, s stream.Stream) (Stats, error) {
	m := e.solo
	if dl, ok := ctx.Deadline(); ok && e.cfg.Simulate {
		e.simBudget = time.Until(dl)
		defer func() { e.simBudget = 0 }()
	}
	var err error
	m.mu.Lock()
	if m.runSharedLocked(ctx, s, nil, nil) {
		mq := m.queries[0]
		err = mq.fail.wrap()
		mq.fail = failure{}
	}
	m.mu.Unlock()
	return e.Stats(), err
}

// classification is the verdict of the three-stage update type classifier.
type classification uint8

const (
	classUnsafe classification = iota
	classSafeLabel
	classSafeDegree
	classSafeADS
	classVertexOp
	// classDirect marks updates that skip the classifier (InterUpdate
	// disabled): they take the full path like classUnsafe, but count
	// toward neither side of the safe/unsafe split. classify() never
	// returns it.
	classDirect
)

// safe reports whether the verdict proves the update's ΔM empty, so that
// it skips enumeration.
func (c classification) safe() bool {
	return c == classSafeLabel || c == classSafeDegree || c == classSafeADS
}

// traceClass maps the verdict to its trace-event label. The values are
// package constants, so building an event never allocates.
func (c classification) traceClass() string {
	switch c {
	case classUnsafe:
		return obs.ClassUnsafe
	case classSafeLabel:
		return obs.ClassSafeLabel
	case classSafeDegree:
		return obs.ClassSafeDegree
	case classSafeADS:
		return obs.ClassSafeADS
	case classVertexOp:
		return obs.ClassVertex
	}
	return obs.ClassDirect
}

// stagedClassifier is implemented by algorithms that report the label and
// degree stages of the classifier separately (algobase.Base); for the
// others only stage 3, AffectsADS, is consulted.
type stagedClassifier interface {
	RelevantStages(stream.Update) (passLabel, passDegree bool)
}

// classify runs the three-stage filter of §4.2 for one update against the
// current graph/ADS state. It never mutates anything.
func (e *Engine) classify(upd stream.Update) classification {
	if !upd.IsEdge() {
		return classVertexOp
	}
	if sc, ok := e.algo.(stagedClassifier); ok {
		passLabel, passDegree := sc.RelevantStages(upd)
		if !passLabel {
			return classSafeLabel
		}
		if !passDegree {
			return classSafeDegree
		}
	}
	if !e.algo.AffectsADS(upd) {
		return classSafeADS
	}
	return classUnsafe
}
