package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"paracosm/internal/concurrent"
	"paracosm/internal/csm"
	"paracosm/internal/graph"
	"paracosm/internal/obs"
	"paracosm/internal/query"
	"paracosm/internal/stream"
)

// MultiEngine runs many continuous queries against the same update stream.
// It adds the third, coarsest level of parallelism — across queries — on
// top of ParaCOSM's inner-update and inter-update levels; this is the
// batch-level parallelism of Mnemonic (Table 1), generalized so that each
// query still benefits from the finer two levels internally.
//
// All queries share ONE data graph; per-query state is index state only
// (each algorithm's ADS plus engine scratch), so memory is
// O(|G| + Σ index) instead of the O(queries × |G|) a clone-per-query
// design costs, and registering a query is O(index build), not O(|G|)
// copy. The stream is processed in lockstep: for each update every query
// first runs its read-only prepare phase (classification, and expiring-
// match enumeration for deletions), the update is applied to the shared
// graph exactly once, then every query runs its commit phase (ADS
// maintenance, new-match enumeration) — the single engine's pipeline
// (pipeline.go) with the mutation shared. The phases only read the graph,
// so queries never contend beyond the two fan-out barriers per update. See
// DESIGN.md §13 for the full contract.
//
// Its lockstep loop is the package's only driver: a standalone Engine runs
// through a MultiEngine of its own, holding that one query, over the
// engine's own graph (see Engine.Init).
//
// Two operating modes coexist:
//
//   - Batch: Register every query up front, Init, then Run the whole
//     stream once (the CLI / bench path).
//
//   - Serving: Init (possibly with zero queries), then interleave
//     ProcessBatch with RegisterLive/Deregister as long-lived clients
//     come and go (the internal/server path). The shared graph always
//     holds the exact post-batch state (Run maintains it too), so a
//     query registered mid-stream starts from the registration point.
//
// All exported methods are safe for concurrent use; Run and ProcessBatch
// hold the engine lock for their whole duration, so registration changes
// serialize with stream processing at batch granularity.
type MultiEngine struct {
	cfg Config

	// OnDelta, if non-nil, observes the incremental result of every
	// (query, update) pair the driver visits, and so of every nonzero ΔM —
	// the fan-in point the serving layer subscribes to. A pair the dispatch
	// index skips (dispatch.go) has a provably empty ΔM and fires nothing,
	// so the callback is not a per-update heartbeat. Set it before Init (or
	// before the RegisterLive that should observe it); per-query
	// invocations are serialized, but different queries invoke it
	// concurrently during Run/ProcessBatch, so the callback must be safe
	// for concurrent use.
	OnDelta func(query string, upd stream.Update, d csm.Delta, timeout bool)

	mu      sync.Mutex
	queries []*multiQuery // guarded by mu
	g       *graph.Graph  // guarded by mu — THE shared data graph (engines read it during fan-out, while mu is held by the driver)
	undo    graph.UndoLog // guarded by mu — scratch journal for ProcessBatch's speculative validation
	closed  Stats         // guarded by mu — retained tally of deregistered queries' Stats
	closedN int           // guarded by mu — number of deregistered queries folded into closed

	// valid and validIdx are ProcessBatch's reusable validation scratch:
	// the valid subsequence of the current batch and, for each valid
	// update, its index in the original batch (for BatchTimes lookup).
	// Reusing them keeps the steady-state serving path allocation-free.
	valid    stream.Stream // guarded by mu
	validIdx []int         // guarded by mu

	// The driver call in flight (see runSharedLocked): all is the list an
	// update visits when the dispatch index does not decide — m.queries
	// until a query fails, its compacted copy in active after — live counts
	// it, cur is the update the phase bodies read (written before each
	// phase, read while the driver waits for it), callWin the call's
	// window tally.
	all    []*multiQuery // guarded by mu
	active []*multiQuery // guarded by mu
	live   int           // guarded by mu
	cur    struct {
		ctx context.Context
		upd stream.Update
		i   int
	} // guarded by mu
	callWin WindowCounters // guarded by mu
	yielded time.Duration  // guarded by mu

	// dispatch routes each edge update to the queries it can touch and
	// keeps the bulk accounting of the rest (see dispatch.go).
	dispatch dispatchIndex // guarded by mu

	// pool (see workers) runs the fan-out job fan and every escalated
	// search under it. fanPrepare and fanCommit are the phase bodies,
	// bound once: handing them to the pool allocates nothing.
	pool       *concurrent.Pool[*multiQuery]
	poolSize   int
	fan        concurrent.Job[*multiQuery]
	fanPrepare func(int, []*multiQuery)
	fanCommit  func(int, []*multiQuery)

	// Window(n) state (see window.go): the coalescing scratch, nil unless
	// Config.Window > 1, and the driver-level window counter tally that
	// TotalStats reports.
	win      *winScratch    // guarded by mu
	winStats WindowCounters // guarded by mu
}

// failure is where a query's engine failed in the current driver call:
// the error and the update, by its position in the call's stream. It
// becomes an error value when collected: the per-update step formats none.
type failure struct {
	err error
	i   int
	upd stream.Update
}

func (f failure) wrap() error { return fmt.Errorf("update %d (%v): %w", f.i, f.upd, f.err) }

type multiQuery struct {
	name string
	algo csm.Algorithm
	q    *query.Graph
	eng  *Engine
	fail failure

	// Bulk accounting against dispatch.counters.Updates (see foldLocked):
	// squared is how many of those updates the query is square with — they
	// came before it went live or while it sat out a call after failing,
	// it was visited for them, or they are among the folded ones already
	// booked in eng's Stats as skipped.
	squared, folded int

	seq uint64 // registration ordinal: the order of rows and visit lists
}

// NewMulti creates an empty multi-query engine; opts configure every
// per-query engine identically. Simulate is cleared: schedule simulation
// belongs to a single Engine.
func NewMulti(opts ...Option) *MultiEngine {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	cfg.Simulate = false
	cfg.normalize()
	return newDriver(cfg, nil, max(runtime.GOMAXPROCS(0), cfg.Threads))
}

// newDriver builds the lockstep driver for a normalized configuration: a
// MultiEngine's, whose Init supplies g, or a standalone Engine's over g,
// with a pool of poolSize goroutines, the submitter included.
func newDriver(cfg Config, g *graph.Graph, poolSize int) *MultiEngine {
	var win *winScratch
	if cfg.Window > 1 {
		win = newWinScratch()
	}
	m := &MultiEngine{cfg: cfg, g: g, dispatch: newDispatchIndex(), win: win, poolSize: poolSize}
	m.fanPrepare, m.fanCommit = m.prepareLocked, m.commitLocked
	return m
}

// Register adds a continuous query under a display name. Must be called
// before Init; use RegisterLive afterwards.
func (m *MultiEngine) Register(name string, algo csm.Algorithm, q *query.Graph) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queries = append(m.queries, &multiQuery{name: name, algo: algo, q: q})
}

// NumQueries returns the number of registered queries.
func (m *MultiEngine) NumQueries() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queries)
}

// Init clones g once into the engine's shared data graph (the caller's g
// is never retained or mutated) and builds every pre-registered query's
// index over it. Zero pre-registered queries is valid (the serving mode
// starts empty and registers live).
func (m *MultiEngine) Init(g *graph.Graph) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.g = g.Clone()
	for _, mq := range m.queries {
		if err := m.initQueryLocked(mq); err != nil {
			return err
		}
	}
	return nil
}

// initQueryLocked builds mq's engine and index over the shared graph and
// enters the query in the dispatch index.
func (m *MultiEngine) initQueryLocked(mq *multiQuery) error {
	cfg := m.cfg
	if m.OnDelta != nil {
		// One closure per query, built once at registration: tags the
		// query name onto the engine-level callback. The driver serializes
		// the shared phases per query, so per-query calls are serialized.
		name := mq.name
		cfg.OnDelta = func(upd stream.Update, d csm.Delta, timeout bool) {
			m.OnDelta(name, upd, d, timeout)
		}
	}
	mq.eng = newEngine(mq.algo, cfg)
	mq.eng.lat = obs.NewHistogram()
	mq.eng.drv = m
	if err := mq.eng.build(m.g, mq.q); err != nil {
		return fmt.Errorf("query %q: %w", mq.name, err)
	}
	m.dispatch.add(mq)
	return nil
}

// RegisterLive adds a query after Init: its index is built over the shared
// graph, i.e. the state after every update processed so far, so the
// query's incremental results start exactly at the registration point.
// The cost is one index build — no graph copy. Names must be unique among
// live queries.
func (m *MultiEngine) RegisterLive(name string, algo csm.Algorithm, q *query.Graph) error {
	return m.RegisterLiveLogged(name, algo, q, nil)
}

// RegisterLiveLogged is RegisterLive with a durability hook: persist is
// called under the engine lock, after the index build succeeds and
// before the lock is released, so the log append and the registration
// are one atomic step with respect to batches and snapshots — the log
// order of records equals their apply order by construction. A persist
// error unwinds the registration (the engine is discarded) and is
// returned: a query is either durable and live, or neither.
func (m *MultiEngine) RegisterLiveLogged(name string, algo csm.Algorithm, q *query.Graph, persist func() error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.g == nil {
		return fmt.Errorf("core: RegisterLive before Init")
	}
	if m.findLocked(name) != nil {
		return fmt.Errorf("core: query %q already registered", name)
	}
	mq := &multiQuery{name: name, algo: algo, q: q}
	if err := m.initQueryLocked(mq); err != nil {
		return err
	}
	if persist != nil {
		if err := persist(); err != nil {
			m.dispatch.remove(mq)
			return fmt.Errorf("core: persist registration: %w", err)
		}
	}
	m.queries = append(m.queries, mq)
	return nil
}

// Deregister removes a query and discards its engine, so the serving
// layer can drop a query when its owning connection goes away without
// tearing down the engine. The dropped query's cumulative Stats are
// folded into the retained closed tally (see
// ClosedStats), so aggregate totals stay monotonic across disconnects.
// Idempotent: deregistering an unknown name reports false and does
// nothing. The remaining queries are untouched and processing continues
// normally.
func (m *MultiEngine) Deregister(name string) bool {
	ok, _ := m.DeregisterLogged(name, nil)
	return ok
}

func (m *MultiEngine) deregisterLocked(name string) bool {
	for i, mq := range m.queries {
		if mq.name == name {
			if mq.eng != nil {
				m.dispatch.remove(mq)
				m.closed.Add(mq.eng.Stats())
				m.closedN++
			}
			m.queries = append(m.queries[:i], m.queries[i+1:]...)
			return true
		}
	}
	return false
}

// DeregisterLogged is Deregister with a durability hook, mirroring
// RegisterLiveLogged: persist runs under the engine lock before the
// query is removed, and a persist error leaves the query untouched.
// (false, nil) means the name was unknown (nothing logged).
func (m *MultiEngine) DeregisterLogged(name string, persist func() error) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.findLocked(name) == nil {
		return false, nil
	}
	if persist != nil {
		if err := persist(); err != nil {
			return false, fmt.Errorf("core: persist deregistration: %w", err)
		}
	}
	return m.deregisterLocked(name), nil
}

func (m *MultiEngine) findLocked(name string) *multiQuery {
	for _, mq := range m.queries {
		if mq.name == name {
			return mq
		}
	}
	return nil
}

// Run processes the whole stream through every query in lockstep and
// keeps the shared graph at the post-stream state (so RegisterLive works
// after Run as well as after ProcessBatch). Per-query failures (e.g.
// deadline) are recorded and returned as one combined error — every
// failed query contributes, joined with errors.Join — while successful
// queries keep their full results. Recorded errors are cleared once
// reported, so a failure in one Run never resurfaces from a later call.
//
// Unlike ProcessBatch, Run treats the stream as trusted: an update that
// does not apply cleanly aborts the run and fails every remaining query
// with that update's error.
func (m *MultiEngine) Run(ctx context.Context, s stream.Stream) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.g == nil {
		return fmt.Errorf("core: Run before Init")
	}
	if m.runSharedLocked(ctx, s, nil, nil) {
		return m.collectErrsLocked()
	}
	return nil
}

// BatchTimes carries the serving layer's queue timestamps for one batch
// into ProcessBatchLogged, so the driver can attribute ingest-queue wait
// and batch-assembly dwell to each update. Enqueued[i]/Dequeued[i] are
// when batch[i] was admitted to the ingestion queue and picked up by the
// ingestion loop; Flushed is when the assembled batch was submitted.
// Missing slices or zero times observe as zero durations — the stage
// sample counts stay intact either way.
type BatchTimes struct {
	Enqueued []time.Time
	Dequeued []time.Time
	Flushed  time.Time
}

// stageWaits returns the ingest-queue wait and assembly dwell for the
// update at original batch index i (zeros when unknown). A nil receiver
// is valid: callers without queue timestamps (Run, plain ProcessBatch)
// observe zero-duration waits so counts still reconcile.
func (bt *BatchTimes) stageWaits(i int) (wait, assemble time.Duration) {
	if bt == nil {
		return 0, 0
	}
	var enq, deq time.Time
	if i < len(bt.Enqueued) {
		enq = bt.Enqueued[i]
	}
	if i < len(bt.Dequeued) {
		deq = bt.Dequeued[i]
	}
	if !enq.IsZero() && !deq.IsZero() {
		if wait = deq.Sub(enq); wait < 0 {
			wait = 0
		}
	}
	if !deq.IsZero() && !bt.Flushed.IsZero() {
		if assemble = bt.Flushed.Sub(deq); assemble < 0 {
			assemble = 0
		}
	}
	return wait, assemble
}

// ProcessBatch is the serving-mode ingestion step. Validation is a
// speculative apply against the live shared graph: every update is
// applied in order with its inverse recorded in the undo journal (an
// update is valid iff it applies cleanly, and validity of update i
// depends on updates < i being applied), the journal is rolled back to
// the pre-batch state, and the valid subsequence is then processed in
// lockstep — pre-apply fan-out, one shared apply, post-apply fan-out per
// update. Updates that do not apply cleanly (duplicate edge, missing
// edge, dead or non-isolated vertex) are filtered out before dispatch —
// applied counts the updates that went through, len(batch)-applied were
// rejected — so a malformed update from one client cannot desynchronize
// the engines or crash the service.
//
// ProcessBatch is intended to run without a context deadline (the serving
// layer bounds work by batch size instead). If ctx does carry a deadline
// and a query times out mid-batch, that query's index lags the shared
// graph and the MultiEngine should be discarded. The combined per-query
// error (errors.Join, as in Run) is returned and the recorded errors are
// cleared.
func (m *MultiEngine) ProcessBatch(ctx context.Context, batch stream.Stream) (applied int, err error) {
	return m.ProcessBatchLogged(ctx, batch, nil, nil)
}

// ProcessBatchLogged is ProcessBatch with queue timestamps and a
// durability hook, either of which may be nil.
//
// With a Tracer, each applied update's ingest-queue wait and
// batch-assembly dwell (from bt) are observed into the pipeline stage
// histograms alongside the driver-measured pre-apply, commit and
// post-apply stages. Every per-update stage is observed exactly once per
// applied update — on the same code path that counts the update applied —
// so stage sample counts reconcile with the applied-update count by
// construction.
//
// persist is called with the validated subsequence after speculative
// validation and before any engine observes an update (the write-ahead
// ordering — log, then apply). The slice is only valid for the duration
// of the call. A persist error aborts the batch: the speculative apply is
// rolled back, no query sees anything, and (0, err) is returned — an
// update is either durable and applied, or neither.
func (m *MultiEngine) ProcessBatchLogged(ctx context.Context, batch stream.Stream, bt *BatchTimes, persist func(stream.Stream) error) (applied int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.g == nil {
		return 0, fmt.Errorf("core: ProcessBatch before Init")
	}
	m.valid = m.valid[:0]
	m.validIdx = m.validIdx[:0]
	for i, upd := range batch {
		if upd.ApplyLogged(m.g, &m.undo) == nil {
			m.valid = append(m.valid, upd)
			m.validIdx = append(m.validIdx, i)
		}
	}
	m.undo.Rollback(m.g)
	if len(m.valid) == 0 {
		return 0, nil
	}
	if persist != nil {
		if perr := persist(m.valid); perr != nil {
			return 0, fmt.Errorf("core: persist batch: %w", perr)
		}
	}
	if m.runSharedLocked(ctx, m.valid, bt, m.validIdx) {
		err = m.collectErrsLocked()
	}
	return len(m.valid), err
}

// runSharedLocked drives s through the registered queries, one stepLocked
// per update, and reports whether a query failed, i.e. whether the caller
// has an error to collect. Under Window(n) the loop runs the call's
// coalesced survivors (coalesceLocked) — same loop, same index, fewer
// updates — and names them by their position in s. Traced, each update's
// ingest wait and assembly dwell come from bt at idx's mapping of s's
// positions to batch indices (bt nil: zero waits; idx nil: identity).
func (m *MultiEngine) runSharedLocked(ctx context.Context, s stream.Stream, bt *BatchTimes, idx []int) (failed bool) {
	var pos []int // windowed: each survivor's position in the call's stream
	if m.win != nil {
		s, pos = m.coalesceLocked(s, bt, idx)
	}
	m.all, m.live, m.yielded = m.queries, len(m.queries), clockNow()
	tr := m.cfg.Tracer
	for k, upd := range s {
		i := k
		if pos != nil {
			i = pos[k]
		}
		var wait, assemble time.Duration
		if tr != nil {
			orig := i
			if idx != nil {
				orig = idx[i]
			}
			wait, assemble = bt.stageWaits(orig)
		}
		if !m.stepLocked(ctx, upd, i, wait, assemble) {
			break
		}
	}
	return m.endLocked()
}

// stepLocked is the package's one per-update step (DESIGN.md §13): the
// read-only pre-apply phase over the visited queries, the one apply of upd
// (position i in the call's stream) to the shared graph, the post-apply
// phase over them. With the classifier on, and never under Simulate,
// whose simulator prices every update it measures, an edge update visits
// only the queries the dispatch index lists (dispatch.go). A query whose
// engine fails sits out the rest of the call, its failure in mq.fail.
// Traced, the step observes the update's five pipeline stages and emits
// one ClassStage event, all after the post-apply phase, so their counts
// are equal by construction. It reports whether the call goes on: not
// once the apply or every query has failed (the remaining updates would
// only advance a graph nobody observes).
//
//paracosm:noalloc
func (m *MultiEngine) stepLocked(ctx context.Context, upd stream.Update, i int, wait, assemble time.Duration) bool {
	tr := m.cfg.Tracer
	var clk obs.StageClock
	if tr != nil {
		clk.Start()
	}
	m.cur.ctx, m.cur.upd, m.cur.i = ctx, upd, i
	visit, routed := m.all, m.cfg.InterUpdate && !m.cfg.Simulate && upd.IsEdge()
	if routed {
		visit = m.visitLocked(upd)
	}
	if upd.IsEdge() {
		m.fanOutLocked(visit, m.fanPrepare)
	} else {
		// A vertex op's prepare is its verdict alone (no enumeration).
		verdict := classDirect
		if m.cfg.InterUpdate {
			verdict = classVertexOp
		}
		for _, mq := range visit {
			mq.eng.pend = pending{verdict: verdict}
		}
	}
	var preApply time.Duration
	if tr != nil {
		preApply = clk.Lap()
	}
	if err := upd.Apply(m.g); err != nil {
		for _, mq := range m.all {
			m.foldLocked(mq)
			mq.fail = failure{err: err, i: i, upd: upd}
		}
		m.live = 0
		return false
	}
	var commit time.Duration
	if tr != nil {
		commit = clk.Lap()
	}
	m.fanOutLocked(visit, m.fanCommit)
	if routed {
		// One count per update stands for every query not visited; a
		// query's own share is booked when the call ends (foldLocked).
		skipped := uint64(m.live - len(visit))
		dc := &m.dispatch.counters
		dc.Updates++
		dc.Visited += uint64(len(visit))
		dc.Skipped += skipped
		if tr != nil && skipped > 0 {
			tr.SafeN(skipped)
		}
	}
	if tr != nil {
		observeUpdateStages(tr, upd, wait, assemble, preApply, commit, clk.Lap())
	}
	if len(visit) > 0 && m.OnDelta != nil {
		// The barriers of a visit-everything driver were also where the
		// goroutines an OnDelta wakes (the serving layer's connection
		// writers) got a processor. Most updates now run no barrier, and
		// a woken goroutine could sit behind this loop until the
		// scheduler's 10 ms preemption tick; so step aside at a bounded
		// rate, after an update that did work.
		if now := clockNow(); now-m.yielded >= yieldEvery {
			m.yielded = now
			runtime.Gosched()
		}
	}
	was := m.live
	for _, mq := range visit {
		if routed {
			mq.squared++
		}
		if mq.fail.err != nil {
			// It sits out the rest of the call: settle what it was spared
			// so far; endLocked writes off the rest.
			m.foldLocked(mq)
			m.live--
		}
	}
	if m.live < was {
		// Compact out queries that just failed.
		m.active = m.active[:0]
		for _, mq := range m.all {
			if mq.fail.err == nil {
				m.active = append(m.active, mq)
			}
		}
		m.all = m.active
	}
	return m.live > 0 || len(m.queries) == 0
}

// endLocked closes a driver call and reports whether a query failed in it.
// It folds every query (the one fold rule: whenever the driver lock is
// free, every engine's Stats are square with the dispatch index) and
// books the call's windows into the driver's tally and every engine. The
// updates a failed query sat out are neither visited nor skipped for it.
//
//paracosm:noalloc
func (m *MultiEngine) endLocked() (failed bool) {
	for _, mq := range m.queries {
		if mq.fail.err != nil {
			failed = true
			mq.squared = m.dispatch.counters.Updates
		} else {
			m.foldLocked(mq)
		}
		if m.callWin.Windows > 0 {
			mq.eng.addWindow(m.callWin)
		}
	}
	m.winStats.add(m.callWin)
	m.callWin = WindowCounters{}
	return failed
}

// fanOutLocked runs one phase over the visit list — inline for one query,
// as a job of the driver's pool, which the driver works too, one query per
// trip (per-query cost is heavy-tailed), for more — and returns when all
// have run it: the barrier that keeps every query on one side of each
// graph mutation.
//
//paracosm:noalloc
func (m *MultiEngine) fanOutLocked(visit []*multiQuery, phase func(int, []*multiQuery)) {
	switch {
	case len(visit) == 1:
		phase(0, visit)
	case len(visit) > 1:
		m.fan.Run(m.workers(), len(visit), 1, visit, phase)
	}
}

// workers returns the driver's pool, starting it on first use. Only the
// driver goroutine starts it — an escalation on a pool worker runs inside
// a fan-out, which started it first — so the start needs no lock.
//
//paracosm:allocs one-time pool start on the driver's first parallel phase
func (m *MultiEngine) workers() *concurrent.Pool[*multiQuery] {
	if m.pool == nil {
		m.pool = concurrent.NewPool[*multiQuery](m.poolSize)
	}
	return m.pool
}

// prepareLocked is the pre-apply phase body of one query, run while the
// driver holds mu. The update's clock stops at the barrier: the wait and
// the shared apply are not this query's time.
//
//paracosm:noalloc
func (m *MultiEngine) prepareLocked(_ int, span []*multiQuery) {
	mq := span[0]
	mq.eng.prepare(m.cur.ctx, m.cur.upd)
	mq.eng.pend.prior = clockNow() - mq.eng.pend.t0
}

// commitLocked is the post-apply phase body of one query, run while the
// driver holds mu.
//
//paracosm:noalloc
func (m *MultiEngine) commitLocked(_ int, span []*multiQuery) {
	mq := span[0]
	mq.eng.pend.t0 = clockNow()
	if err := mq.eng.commit(m.cur.ctx, m.cur.upd); err != nil {
		mq.fail = failure{err: err, i: m.cur.i, upd: m.cur.upd}
	}
}

// yieldEvery bounds how long the driver keeps its processor without
// offering it to other goroutines: long enough that a batch of cheap updates
// runs through undisturbed and its deltas leave in one write, short against
// the milliseconds a heavy update's search takes.
const yieldEvery = time.Millisecond

// observeUpdateStages observes one applied update's five pipeline stages
// and emits its ClassStage ring event — all together, so the per-update
// stage sample counts are equal by construction.
//
//paracosm:noalloc
func observeUpdateStages(tr *obs.Tracer, upd stream.Update, wait, assemble, preApply, commit, postApply time.Duration) {
	st := tr.Stages()
	st.Observe(obs.StageIngestWait, wait)
	st.Observe(obs.StageAssemble, assemble)
	st.Observe(obs.StagePreApply, preApply)
	st.Observe(obs.StageCommit, commit)
	st.Observe(obs.StagePostApply, postApply)
	tr.Stage(obs.Event{
		Op: upd.Op.String(), U: uint32(upd.U), V: uint32(upd.V),
		IngestWait: wait, Assemble: assemble, PreApply: preApply,
		Commit: commit, PostApply: postApply,
		Total: wait + assemble + preApply + commit + postApply,
	})
}

// collectErrsLocked joins every failed query's error into one combined
// error (nil when none failed) and clears the recorded failures, so a
// reported failure never resurfaces from a later Run or ProcessBatch.
func (m *MultiEngine) collectErrsLocked() error {
	var errs []error
	for _, mq := range m.queries {
		if mq.fail.err != nil {
			errs = append(errs, fmt.Errorf("query %q: %w", mq.name, mq.fail.wrap()))
			mq.fail = failure{}
		}
	}
	return errors.Join(errs...)
}

// Close joins the driver's pool, the only goroutines the driver and its
// engines own. Idempotent; the engines stay usable afterwards, and the
// next fan-out or escalation restarts the pool.
func (m *MultiEngine) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.pool != nil {
		m.pool.Close()
		m.pool = nil
	}
}

// Stats returns the per-query statistics, keyed by registration name.
// Deregistered queries are not included; their retained totals are
// available from ClosedStats.
func (m *MultiEngine) Stats() map[string]Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]Stats, len(m.queries))
	for _, mq := range m.queries {
		if mq.eng != nil {
			out[mq.name] = mq.eng.Stats()
		}
	}
	return out
}

// ClosedStats returns the cumulative Stats of every deregistered query
// (folded in at Deregister time) and how many queries it covers. Summing
// it with the live per-query Stats yields totals that are monotonic
// across client disconnects — the contract the serving layer's metrics
// rely on.
func (m *MultiEngine) ClosedStats() (Stats, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.closed
	s.ThreadBusy = append([]time.Duration(nil), m.closed.ThreadBusy...)
	return s, m.closedN
}

// QuerySnapshot is one live query's observability view: its cumulative
// Stats plus latency quantiles from the per-query histogram every
// registered engine carries. The serving layer's /queries
// endpoint and labeled /metrics series are rendered from these.
type QuerySnapshot struct {
	Name  string
	Stats Stats
	// Visited is how many of Stats.Updates ran through the query's engine;
	// the rest were label-safe updates the dispatch index accounted in
	// bulk (counted since this process started: a baseline restored with
	// SeedStats reads as visited).
	Visited int
	P50     time.Duration
	P90     time.Duration
	P99     time.Duration
	Max     time.Duration
}

// QuerySnapshots returns a snapshot per live query, in registration
// order. Deregistered queries are excluded.
func (m *MultiEngine) QuerySnapshots() []QuerySnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]QuerySnapshot, 0, len(m.queries))
	for _, mq := range m.queries {
		if mq.eng == nil {
			continue
		}
		qs := QuerySnapshot{Name: mq.name, Stats: mq.eng.Stats()}
		qs.Visited = qs.Stats.Updates - mq.folded
		if h := mq.eng.lat; h != nil && h.Count() > 0 {
			qs.P50 = h.Quantile(0.50)
			qs.P90 = h.Quantile(0.90)
			qs.P99 = h.Quantile(0.99)
			qs.Max = h.Max()
		}
		out = append(out, qs)
	}
	return out
}

// TotalStats returns the sum of every query's Stats, live and
// deregistered alike: the monotonic aggregate view. Its Window is the
// shared driver's tally, counted once per window rather than once per
// query.
func (m *MultiEngine) TotalStats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	total := m.closed
	total.ThreadBusy = append([]time.Duration(nil), m.closed.ThreadBusy...)
	for _, mq := range m.queries {
		if mq.eng != nil {
			total.Add(mq.eng.Stats())
		}
	}
	total.Window = m.winStats
	return total
}

// Engine returns the per-query engine (e.g. to attach an OnMatch
// callback), or nil if the name is unknown. Must be called after Init.
// The pointer is invalidated by Deregister of the same name. The engine
// is the MultiEngine's to drive: its Stats are exact between calls, and
// its own Run and ProcessUpdate must not be called.
func (m *MultiEngine) Engine(name string) *Engine {
	m.mu.Lock()
	defer m.mu.Unlock()
	if mq := m.findLocked(name); mq != nil {
		return mq.eng
	}
	return nil
}

// QueryExport is one live query's snapshot-time state for the durability
// layer: its name and cumulative Stats (the baseline recovery seeds via
// Engine.SeedStats so totals stay monotonic across a restart).
type QueryExport struct {
	Name  string
	Stats Stats
}

// ExportState hands a consistent cut of the serving state — the shared
// data graph and every live query's QueryExport, in registration order —
// to fn, all under the engine lock: no batch can commit and no query can
// register or deregister while fn runs. The snapshot writer serializes
// from inside fn; the graph pointer must not be retained after fn
// returns.
func (m *MultiEngine) ExportState(fn func(g *graph.Graph, queries []QueryExport) error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.g == nil {
		return fmt.Errorf("core: ExportState before Init")
	}
	qs := make([]QueryExport, 0, len(m.queries))
	for _, mq := range m.queries {
		if mq.eng != nil {
			qs = append(qs, QueryExport{Name: mq.name, Stats: mq.eng.Stats()})
		}
	}
	return fn(m.g, qs)
}
