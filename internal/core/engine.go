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
	g    *graph.Graph
	q    *query.Graph

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
	// for this engine (see inner.go): slot 0 is the caller — root
	// collection and the sequential phase of every update — and slot 1+w
	// is pool worker w. The worker slots are added by the first parallel
	// phase (ensureWorkers), so an engine that never runs one — most of a
	// MultiEngine's thousands — carries the caller's only.
	searchers []*searcher
	// phase is the find phase in flight, shared by its searchers.
	phase searchPhase
	// spanTask is runSpan bound once, so handing it to the pool on every
	// escalation allocates no method value.
	spanTask func(int, []csm.State)

	// splitDepth is the effective SPLIT_DEPTH (auto-tuned from the query
	// size when Config.SplitDepth is 0).
	splitDepth int

	// simBudget is the simulated-time budget of the current Run (simulate
	// mode only; 0 when processing updates outside Run).
	simBudget time.Duration

	// verdicts is Stage A's classification scratch, one entry per update
	// of the round (batch or window), reused across rounds.
	verdicts []classification

	// pool is the persistent worker pool of the inner-update executor,
	// started lazily on the first escalated update (see ensurePool) and
	// released by Close. nil while no workers exist.
	pool *concurrent.Pool[csm.State]

	// shared carries one update's state between the two shared-graph
	// phases (sharedPrepare/sharedCommit, see shared.go) when the engine
	// is driven in lockstep by a MultiEngine. The driver serializes the
	// phases per engine, so no lock is needed.
	shared sharedPending

	// win is Window(n)'s reusable coalescing scratch (Config.Window > 1;
	// see window.go), built lazily on first use.
	win *winScratch

	// lat, if non-nil, observes every processed update's latency — the
	// exact value accumulated into Stats.TTotal, at the same sites that
	// increment Stats.Updates, so lat.Count() == Stats.Updates by
	// construction. MultiEngine attaches it at registration when
	// Config.TrackQueries is set (see QuerySnapshots); nil otherwise,
	// costing one predictable branch per update.
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
// simulate-budget check in Run, the budget probe in findMatchesSimulated)
// use it instead of Stats(), which copies the whole struct plus the
// ThreadBusy slice on every call.
func (e *Engine) totalElapsed() time.Duration {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return e.stats.TTotal
}

// Close releases the persistent worker pool, joining its goroutines. It is
// idempotent and safe on engines that never escalated (no pool exists).
// Close must not overlap an in-flight ProcessUpdate/Run; the engine stays
// usable afterwards — the next escalated update lazily restarts the pool.
func (e *Engine) Close() {
	if e.pool != nil {
		e.pool.Close()
		e.pool = nil
	}
}

// ResetStats zeroes accumulated instrumentation.
func (e *Engine) ResetStats() {
	e.statsMu.Lock()
	e.stats = Stats{}
	e.statsMu.Unlock()
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

// Init runs the offline stage of the wrapped algorithm on (g, q).
func (e *Engine) Init(g *graph.Graph, q *query.Graph) error {
	if g == nil || q == nil {
		return fmt.Errorf("core: nil graph or query")
	}
	e.g, e.q = g, q
	e.splitDepth = e.cfg.SplitDepth
	if e.splitDepth <= 0 {
		e.splitDepth = q.NumVertices() - 2
	}
	if e.splitDepth < 2 {
		e.splitDepth = 2
	}
	return e.algo.Build(g, q)
}

// ProcessUpdate executes one update through the full path: apply the
// mutation, maintain the ADS, and find incremental matches with the
// inner-update executor. It is the "unsafe update" path of the batch
// executor and the whole story when InterUpdate is disabled.
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
func (e *Engine) ProcessUpdate(ctx context.Context, upd stream.Update) (csm.Delta, error) {
	return e.processUpdate(ctx, upd, classDirect, false)
}

// processUpdate is ProcessUpdate plus the caller's classification verdict
// (classDirect when the update bypassed the batch executor), which only
// feeds the trace event — execution is identical for every class. The
// body is deliberately closure-free: closures capturing the delta would
// escape to the heap and put allocations on the per-update hot path.
// TestProcessUpdateAllocations measures the contract at runtime; the
// directive below makes paracosmvet prove it at lint time.
//
//paracosm:noalloc
func (e *Engine) processUpdate(ctx context.Context, upd stream.Update, cl classification, reclassified bool) (csm.Delta, error) {
	var d csm.Delta
	var r innerResult
	var seqBusy time.Duration
	var err error
	deadline, hasDeadline := ctx.Deadline()
	t0 := time.Now()
	simulate := e.cfg.Simulate && e.cfg.Threads > 1

	switch upd.Op {
	case stream.AddEdge:
		if aerr := upd.Apply(e.g); aerr != nil {
			return d, aerr
		}
		tA := time.Now()
		e.algo.UpdateADS(upd)
		d.TADS = time.Since(tA)
		r, seqBusy = e.findPhase(deadline, hasDeadline, upd, true, simulate, &d)
		d.Positive, d.Nodes = r.matches, r.nodes
		if r.timeout {
			// Mutation and ADS were applied before the search; Delta is
			// the partial ΔM found so far (see the timeout contract).
			err = csm.ErrDeadline
		}

	case stream.DeleteEdge:
		r, seqBusy = e.findPhase(deadline, hasDeadline, upd, false, simulate, &d)
		d.Negative, d.Nodes = r.matches, r.nodes
		if aerr := upd.Apply(e.g); aerr != nil {
			return d, aerr
		}
		tA := time.Now()
		e.algo.UpdateADS(upd)
		d.TADS = time.Since(tA)
		if r.timeout {
			// The mutation and ADS update run even after a find-phase
			// timeout, deliberately: the timeout contract guarantees the
			// update is applied, with Delta a partial (lower-bound) ΔM.
			err = csm.ErrDeadline
		}

	case stream.AddVertex, stream.DeleteVertex:
		if aerr := upd.Apply(e.g); aerr != nil {
			return d, aerr
		}
		tA := time.Now()
		e.algo.UpdateADS(upd)
		d.TADS = time.Since(tA)

	default:
		//lint:ignore noalloc malformed-stream path: formatting the error is off the per-update contract
		return d, fmt.Errorf("core: unknown op %v", upd.Op)
	}

	e.account(&d, seqBusy, time.Since(t0))
	if e.cfg.Tracer != nil {
		total := time.Since(t0)
		if simulate {
			// Wall-clock elapsed would report the sequential execution
			// the simulation replaces (see account).
			total = d.TADS + d.TFind
		}
		e.traceUpdate(upd, cl, reclassified, &d, &r, total, err != nil)
	}
	if e.cfg.OnDelta != nil {
		// Fires only after the update is fully applied: mutation errors
		// returned above never reach here, timeouts do (partial ΔM).
		e.cfg.OnDelta(upd, d, err != nil)
	}
	return d, err
}

// findPhase runs the find-matches phase — real or simulated — filling
// d.TFind and returning the inner result plus the caller-thread busy
// time (0 in simulate mode: simulateSchedule attributes per-worker
// loads, including the caller slot, itself).
//
//paracosm:noalloc
func (e *Engine) findPhase(deadline time.Time, hasDeadline bool, upd stream.Update, positive, simulate bool, d *csm.Delta) (innerResult, time.Duration) {
	if simulate {
		r, simFind := e.findMatchesSimulated(deadline, hasDeadline, upd, positive)
		d.TFind = simFind
		return r, 0
	}
	tF := time.Now()
	r := e.findMatchesParallel(deadline, hasDeadline, upd, positive)
	d.TFind = time.Since(tF)
	return r, r.seqBusy
}

// traceUpdate builds and emits the per-update trace event. Callers check
// cfg.Tracer != nil first, so the non-traced hot path pays one branch and
// no call; the event itself is stack-allocated and the Op/Class strings
// are constants, so even the traced path allocates nothing per update.
func (e *Engine) traceUpdate(upd stream.Update, cl classification, reclassified bool, d *csm.Delta, r *innerResult, total time.Duration, timeout bool) {
	e.cfg.Tracer.Update(obs.Event{
		Op:           upd.Op.String(),
		U:            uint32(upd.U),
		V:            uint32(upd.V),
		Class:        cl.traceClass(),
		Reclassified: reclassified,
		Escalated:    r.escalated,
		Timeout:      timeout,
		Nodes:        d.Nodes,
		Resplits:     r.resplits,
		Matches:      d.Positive + d.Negative,
		ADS:          d.TADS,
		Find:         d.TFind,
		Total:        total,
	})
}

// account accumulates one full-path update's delta into the stats.
// elapsed is the caller-thread time actually spent on this update (the
// shared-graph phases exclude fan-out barrier waits from it, so TTotal
// stays comparable to the single-engine path).
func (e *Engine) account(d *csm.Delta, seqBusy, elapsed time.Duration) {
	e.statsMu.Lock()
	e.stats.Updates++
	e.stats.Positive += d.Positive
	e.stats.Negative += d.Negative
	e.stats.Nodes += d.Nodes
	e.stats.TADS += d.TADS
	e.stats.TFind += d.TFind
	if seqBusy > 0 {
		// Attribute the sequential find phase to the caller slot so the
		// per-thread busy CDF (Figure 10) covers the whole search.
		if len(e.stats.ThreadBusy) == 0 {
			e.stats.ThreadBusy = append(e.stats.ThreadBusy, 0)
		}
		e.stats.ThreadBusy[0] += seqBusy
	}
	total := elapsed
	if e.cfg.Simulate && e.cfg.Threads > 1 {
		// In simulate mode TFind is already the simulated parallel time;
		// wall-clock elapsed would double-count the sequential execution.
		total = d.TADS + d.TFind
	}
	e.stats.TTotal += total
	e.statsMu.Unlock()
	if e.lat != nil {
		e.lat.Observe(total)
	}
}

// commitSafe finishes an update the classifier proved safe (verdict v) once
// its mutation is applied; every executor's safe branch ends here. The ΔM
// is empty by construction, so enumeration is skipped entirely, but label-
// and degree-safe updates must still maintain the ADS: the degree change at
// the endpoints can flip candidacy of other query vertices even though this
// edge matches none. Only stage-3 safety (AffectsADS == false) proves the
// ADS untouched, so only then is maintenance skipped (the γ·T_ADS term of
// the speedup model, Eq. 1). The update's latency is prior — time already
// spent on it that t0 does not cover — plus the time since t0. The OnDelta
// callback fires with the empty ΔM: subscribers observe stream progress.
//
// Eq. 1 models safe updates as M-way-parallel ADS maintenance (γ·T_ADS/M).
// The paper's C++ system updates the index concurrently under fine-grained
// locks; this Go port keeps index mutation single-writer for memory-safety,
// so the M-way discount is applied in simulate mode only and the limitation
// is documented in DESIGN.md.
//
//paracosm:noalloc
func (e *Engine) commitSafe(upd stream.Update, v classification, t0 time.Time, prior time.Duration) {
	var tads time.Duration
	if v != classSafeADS {
		tA := time.Now()
		e.algo.UpdateADS(upd)
		tads = time.Since(tA)
	}
	div := time.Duration(1)
	if e.cfg.Simulate && e.cfg.Threads > 1 {
		div = time.Duration(e.cfg.Threads)
	}
	tads /= div
	total := (prior + time.Since(t0)) / div
	e.accountSafe(v, 1, tads, total)
	d := csm.Delta{TADS: tads}
	if e.cfg.Tracer != nil {
		// Safe updates skip the search, so the event carries no
		// nodes/matches — the interesting fields are the class (which
		// stage proved safety) and the tiny latency.
		var r innerResult
		e.traceUpdate(upd, v, false, &d, &r, total, false)
	}
	if e.cfg.OnDelta != nil {
		e.cfg.OnDelta(upd, d, false)
	}
}

// accountSafe books n safe updates of class v, each with ADS time tads and
// latency total, into Stats and the per-query latency histogram: the one
// place that knows what a safe update adds to them. commitSafe books one
// update at a time; MultiEngine's fold books, in one call and with zero
// durations, every label-safe update its dispatch index kept away from
// this engine.
func (e *Engine) accountSafe(v classification, n int, tads, total time.Duration) {
	e.statsMu.Lock()
	e.stats.Updates += n
	e.stats.SafeUpdates += n
	switch v {
	case classSafeLabel:
		e.stats.SafeByLabel += n
	case classSafeDegree:
		e.stats.SafeByDegree += n
	case classSafeADS:
		e.stats.SafeByADS += n
	}
	e.stats.TADS += tads * time.Duration(n)
	e.stats.TTotal += total * time.Duration(n)
	e.statsMu.Unlock()
	if e.lat != nil {
		e.lat.ObserveN(total, uint64(n))
	}
}

// Run processes the whole stream. With InterUpdate enabled, updates flow
// through the batch executor; otherwise each goes through ProcessUpdate.
// In simulate mode the context deadline is interpreted against simulated
// time: the run is aborted once accumulated simulated time exceeds the
// budget remaining at the first update.
func (e *Engine) Run(ctx context.Context, s stream.Stream) (Stats, error) {
	var simBudget time.Duration
	if dl, ok := ctx.Deadline(); ok && e.cfg.Simulate {
		simBudget = time.Until(dl)
		e.simBudget = simBudget
		defer func() { e.simBudget = 0 }()
	}
	overSimBudget := func() bool {
		return simBudget > 0 && e.totalElapsed() > simBudget
	}
	if !e.cfg.InterUpdate {
		for i, upd := range s {
			if _, err := e.ProcessUpdate(ctx, upd); err != nil {
				return e.Stats(), fmt.Errorf("update %d (%v): %w", i, upd, err)
			}
			if overSimBudget() {
				return e.Stats(), fmt.Errorf("update %d: %w", i, csm.ErrDeadline)
			}
		}
		return e.Stats(), nil
	}
	windowed := e.cfg.Window > 1 && !e.cfg.Simulate
	i := 0
	for i < len(s) {
		var n int
		var err error
		if windowed {
			n, err = e.runWindow(ctx, s[i:])
		} else {
			n, err = e.runBatch(ctx, s[i:])
		}
		i += n
		if err != nil {
			return e.Stats(), fmt.Errorf("update %d: %w", i-1, err)
		}
		if n == 0 {
			return e.Stats(), fmt.Errorf("core: batch executor made no progress")
		}
		if overSimBudget() {
			return e.Stats(), fmt.Errorf("update %d: %w", i-1, csm.ErrDeadline)
		}
	}
	return e.Stats(), nil
}

// classification is the verdict of the three-stage update type classifier.
type classification uint8

const (
	classUnsafe classification = iota
	classSafeLabel
	classSafeDegree
	classSafeADS
	classVertexOp
	// classDirect marks updates that never went through the classifier
	// (InterUpdate disabled, or direct ProcessUpdate calls). It is a
	// trace-only value: classify() never returns it.
	classDirect
)

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

// runBatch executes one batch round of the inter-update executor
// (Figure 6): parallel classification, direct application of the safe
// prefix, full processing of the first unsafe update, deferral of the
// rest. It returns how many updates of s were consumed.
func (e *Engine) runBatch(ctx context.Context, s stream.Stream) (int, error) {
	if len(s) > e.cfg.BatchSize {
		s = s[:e.cfg.BatchSize]
	}
	verdicts := e.stageA(s)
	for j, upd := range s {
		ranUnsafe, err := e.stageB(ctx, upd, verdicts[j])
		if err != nil || ranUnsafe {
			// Defer the remainder of the batch (Figure 6).
			return j + 1, err
		}
	}
	return len(s), nil
}

// stageA is Stage A of the inter-update executor: classify batch in
// parallel (read-only against the graph and ADS) into the engine's verdict
// scratch and book the round. Shared by runBatch and runWindow.
func (e *Engine) stageA(batch stream.Stream) []classification {
	k := len(batch)
	for len(e.verdicts) < k {
		e.verdicts = append(e.verdicts, classUnsafe)
	}
	verdicts := e.verdicts[:k]
	t := time.Now()
	workers := e.cfg.Threads
	if workers > k {
		workers = k
	}
	if workers <= 1 {
		for j, upd := range batch {
			verdicts[j] = e.classify(upd)
		}
	} else {
		var wg sync.WaitGroup
		chunk := (k + workers - 1) / workers
		for lo := 0; lo < k; lo += chunk {
			hi := lo + chunk
			if hi > k {
				hi = k
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for j := lo; j < hi; j++ {
					verdicts[j] = e.classify(batch[j])
				}
			}(lo, hi)
		}
		wg.Wait()
	}
	cost := time.Since(t)
	if e.cfg.Simulate && e.cfg.Threads > 1 {
		// Under schedule simulation classification runs sequentially but
		// is charged as k-way parallel work.
		cost /= time.Duration(e.cfg.Threads)
	}
	e.statsMu.Lock()
	e.stats.Batches++
	e.stats.TTotal += cost
	e.statsMu.Unlock()
	if e.cfg.Tracer != nil {
		e.cfg.Tracer.Classify(cost)
	}
	return verdicts
}

// stageB is one step of Stage B, the ordered application, for an update
// with Stage-A verdict v. Safe updates are applied directly (no
// enumeration, and no ADS maintenance either at stage-3 safety — that is
// the whole point); vertex ops and unsafe updates run the full
// inner-parallel path. Earlier updates of the round may have changed
// endpoint degrees or the ADS since classification, so degree- and
// ADS-based safe verdicts are first re-validated against the current
// state; label-based verdicts are permanent (vertex labels never change).
// It reports whether upd ran as unsafe, behind which runBatch defers the
// rest of its batch.
func (e *Engine) stageB(ctx context.Context, upd stream.Update, v classification) (ranUnsafe bool, err error) {
	reclassified := false
	if (v == classSafeDegree || v == classSafeADS) && upd.IsEdge() {
		if v = e.classify(upd); v == classUnsafe {
			reclassified = true
			e.statsMu.Lock()
			e.stats.Reclassified++
			e.statsMu.Unlock()
		}
	}
	switch v {
	case classSafeLabel, classSafeDegree, classSafeADS:
		t0 := time.Now()
		if err := upd.Apply(e.g); err != nil {
			return false, err
		}
		e.commitSafe(upd, v, t0, 0)
		return false, nil
	}
	if _, err := e.processUpdate(ctx, upd, v, reclassified); err != nil {
		return false, err
	}
	e.statsMu.Lock()
	if v == classVertexOp {
		e.stats.VertexUpdates++
		e.stats.SafeUpdates++
	} else {
		e.stats.UnsafeUpdates++
	}
	e.statsMu.Unlock()
	return v == classUnsafe, nil
}
