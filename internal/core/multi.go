package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

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
// first runs its read-only pre-apply phase (classification, and expiring-
// match enumeration for deletions), the update is applied to the shared
// graph exactly once, then every query runs its post-apply phase (ADS
// maintenance, new-match enumeration). The phases only read the graph, so
// queries never contend beyond the two fan-out barriers per update. See
// DESIGN.md §13 for the full contract.
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

	// closedLat retains the merged per-query latency histograms of
	// deregistered queries (TrackQueries mode), mirroring closed for
	// Stats. nil until the first tracked query deregisters.
	closedLat *obs.Histogram // guarded by mu

	// valid and validIdx are ProcessBatch's reusable validation scratch:
	// the valid subsequence of the current batch and, for each valid
	// update, its index in the original batch (for BatchTimes lookup).
	// Reusing them keeps the steady-state serving path allocation-free.
	valid    stream.Stream // guarded by mu
	validIdx []int         // guarded by mu

	// active is the driver's reusable list of the queries still live in
	// the current call, built once one has failed mid-call.
	active []*multiQuery // guarded by mu

	// dispatch routes each edge update to the queries it can touch and
	// keeps the bulk accounting of the rest (see dispatch.go).
	dispatch dispatchIndex // guarded by mu

	// fanCur is the current lockstep task, read by the persistent fan-out
	// closures below. The driver writes it under mu before each fanOut
	// barrier; worker goroutines read it only between the barrier's spawn
	// and join, during which the driver does not touch it — the same
	// publication discipline as the shared graph itself.
	fanCur struct {
		ctx       context.Context
		upd       stream.Update
		i         int
		simBudget time.Duration
	} // guarded by mu

	// fanPrepare/fanCommit are the pre-apply and post-apply fan-out
	// bodies, built once (lazily, under mu) so the per-update lockstep
	// loop allocates no closures — part of the serving path's
	// zero-allocation contract (see TestSharedPathAllocations).
	fanPrepare func(*multiQuery) // guarded by mu
	fanCommit  func(*multiQuery) // guarded by mu

	// Window(n) state (see window.go): the coalescing scratch, nil unless
	// Config.Window > 1, and the driver-level window counter tally.
	win      *winScratch    // guarded by mu
	winStats WindowCounters // guarded by mu
}

type multiQuery struct {
	name string
	algo csm.Algorithm
	q    *query.Graph
	eng  *Engine
	err  error

	// Bulk accounting against dispatch.counters.Updates (see foldLocked):
	// squared is how many of those updates the query is square with — they
	// came before it went live or while it sat out a call after failing,
	// it was visited for them, or they are among the folded ones already
	// booked in eng's Stats as skipped.
	squared, folded int

	seq uint64 // registration ordinal: the order of rows and visit lists
}

// NewMulti creates an empty multi-query engine; opts configure every
// per-query engine identically.
func NewMulti(opts ...Option) *MultiEngine {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	cfg.normalize()
	var win *winScratch
	if cfg.Window > 1 {
		win = newWinScratch()
	}
	return &MultiEngine{cfg: cfg, dispatch: newDispatchIndex(), win: win}
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
	if m.cfg.TrackQueries {
		mq.eng.lat = obs.NewHistogram()
	}
	if err := mq.eng.Init(m.g, mq.q); err != nil {
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
// error unwinds the registration (the engine is closed and discarded)
// and is returned: a query is either durable and live, or neither.
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
			mq.eng.Close()
			return fmt.Errorf("core: persist registration: %w", err)
		}
	}
	m.queries = append(m.queries, mq)
	return nil
}

// Deregister removes a query and closes its engine (joining its worker
// pool), so the serving layer can drop a query when its owning connection
// goes away without tearing down the engine. The dropped query's
// cumulative Stats are folded into the retained closed tally (see
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
				m.foldLocked(mq)
				m.dispatch.remove(mq)
				m.closed.Add(mq.eng.Stats())
				m.closedN++
				if mq.eng.lat != nil {
					if m.closedLat == nil {
						m.closedLat = obs.NewHistogram()
					}
					m.closedLat.Merge(mq.eng.lat)
				}
				mq.eng.Close()
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
// into ProcessBatchTimed, so the driver can attribute ingest-queue wait
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
	return m.ProcessBatchTimed(ctx, batch, nil)
}

// ProcessBatchTimed is ProcessBatch with queue timestamps: when the
// engine has a Tracer, each applied update's ingest-queue wait and
// batch-assembly dwell (from bt, which may be nil) are observed into the
// pipeline stage histograms alongside the driver-measured pre-apply,
// commit and post-apply stages. Every per-update stage is observed
// exactly once per applied update — on the same code path that counts
// the update applied — so stage sample counts reconcile with the
// applied-update count by construction.
func (m *MultiEngine) ProcessBatchTimed(ctx context.Context, batch stream.Stream, bt *BatchTimes) (applied int, err error) {
	return m.ProcessBatchLogged(ctx, batch, bt, nil)
}

// ProcessBatchLogged is ProcessBatchTimed with a durability hook: when
// persist is non-nil it is called with the validated subsequence after
// speculative validation and before any engine observes an update (the
// write-ahead ordering — log, then apply). The slice is only valid for
// the duration of the call. A persist error aborts the batch: the
// speculative apply is rolled back, no query sees anything, and
// (0, err) is returned — an update is either durable and applied, or
// neither.
func (m *MultiEngine) ProcessBatchLogged(ctx context.Context, batch stream.Stream, bt *BatchTimes, persist func(stream.Stream) error) (applied int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.g == nil {
		return 0, fmt.Errorf("core: ProcessBatch before Init")
	}
	m.undo.Reset()
	m.valid = m.valid[:0]
	m.validIdx = m.validIdx[:0]
	// With zero queries the speculative apply below IS the commit (the
	// batch state is kept, see the zero-query branch), so the stage
	// observation happens here rather than in runSharedLocked.
	tr := m.cfg.Tracer
	stageHere := tr != nil && len(m.queries) == 0
	var clk obs.StageClock
	for i, upd := range batch {
		if stageHere {
			clk.Start()
		}
		if upd.ApplyLogged(m.g, &m.undo) == nil {
			if stageHere {
				commit := clk.Lap()
				wait, assemble := bt.stageWaits(i)
				observeUpdateStages(tr, upd, wait, assemble, 0, commit, 0)
			}
			m.valid = append(m.valid, upd)
			m.validIdx = append(m.validIdx, i)
		}
	}
	if len(m.valid) == 0 {
		return 0, nil
	}
	if persist != nil {
		if perr := persist(m.valid); perr != nil {
			m.undo.Rollback(m.g)
			return 0, fmt.Errorf("core: persist batch: %w", perr)
		}
	}
	if len(m.queries) == 0 {
		// No queries to drive: the speculative apply already left the
		// shared graph at the post-batch state, so keep it.
		m.undo.Reset()
		return len(m.valid), nil
	}
	m.undo.Rollback(m.g)
	if m.runSharedLocked(ctx, m.valid, bt, m.validIdx) {
		err = m.collectErrsLocked()
	}
	return len(m.valid), err
}

// runSharedLocked drives s through the registered queries in lockstep: per
// update, fan out the read-only pre-apply phase, apply the update to the
// shared graph exactly once, then fan out the post-apply phase. All
// queries therefore observe the identical graph state around every
// update — the apply-once/fan-out contract of DESIGN.md §13. With the
// classifier on, an edge update fans out only over the queries the
// dispatch index lists for its endpoint labels (none: no barrier at all);
// the others are accounted in bulk as the safe:label updates they are
// (dispatch.go). A query whose engine reports an error is skipped for the
// remainder of the call (its index no longer tracks the shared graph);
// the error is left in mq.err for collectErrsLocked. Under Window(n) the
// loop runs the call's coalesced survivors (coalesceLocked) — same loop,
// same index, fewer updates — and names them by their position in s.
//
// With a Tracer configured, the driver observes each fully-applied
// update's pipeline stages (ingest wait and assembly dwell from bt/idx,
// pre-apply, commit, post-apply measured here) and emits one ClassStage
// ring event. All five stages are observed together after the post-apply
// fan-out, so their sample counts are identical by construction — an
// update aborted mid-loop (trusted-stream apply error) observes nothing.
// bt may be nil (waits observe as zero); idx maps s's positions to
// original batch indices for bt lookup (nil means identity). It reports
// whether a query may have recorded an error, i.e. whether the caller has
// anything to collect.
func (m *MultiEngine) runSharedLocked(ctx context.Context, s stream.Stream, bt *BatchTimes, idx []int) (failed bool) {
	var pos []int // windowed: each survivor's position in the call's stream
	if m.cfg.Window > 1 && !m.cfg.Simulate {
		s, pos = m.coalesceLocked(s, bt, idx)
	}
	if m.fanPrepare == nil {
		// Built once per MultiEngine: the closures read the current task
		// from m.fanCur, so the lockstep loop below never allocates.
		m.fanPrepare = func(mq *multiQuery) {
			mq.eng.sharedPrepare(m.fanCur.ctx, m.fanCur.upd)
		}
		m.fanCommit = func(mq *multiQuery) {
			cur := &m.fanCur
			if err := mq.eng.sharedCommit(cur.ctx, cur.upd); err != nil {
				mq.err = fmt.Errorf("update %d (%v): %w", cur.i, cur.upd, err)
			} else if cur.simBudget > 0 && mq.eng.totalElapsed() > cur.simBudget {
				mq.err = fmt.Errorf("update %d: %w", cur.i, csm.ErrDeadline)
			}
		}
	}
	// Simulated-time budget, as in Engine.Run: under schedule simulation a
	// context deadline is interpreted against accumulated simulated time.
	var simBudget time.Duration
	if dl, ok := ctx.Deadline(); ok && m.cfg.Simulate {
		simBudget = time.Until(dl)
		for _, mq := range m.queries {
			mq.eng.simBudget = simBudget
		}
		defer func() {
			for _, mq := range m.queries {
				mq.eng.simBudget = 0
			}
		}()
	}
	// Every recorded error was cleared when the last call reported it, so
	// the call starts with every registered query live. all is the list an
	// update visits when the index does not decide: m.queries itself until
	// a query fails, its compacted copy after.
	dispatching := m.cfg.InterUpdate && !m.cfg.Simulate
	dc := &m.dispatch.counters
	all, live := m.queries, len(m.queries)
	tr := m.cfg.Tracer
	var clk obs.StageClock
	yielded := time.Now()
	for i, upd := range s {
		if pos != nil {
			i = pos[i]
		}
		m.fanCur.ctx, m.fanCur.upd, m.fanCur.i, m.fanCur.simBudget = ctx, upd, i, simBudget
		if live == 0 && len(m.queries) > 0 {
			// Every query failed; stop early — the remaining updates would
			// only advance a graph nobody observes, and the serving layer
			// discards the MultiEngine on error anyway.
			break
		}
		if tr != nil {
			clk.Start()
		}
		visit, routed := all, dispatching && upd.IsEdge()
		if routed {
			visit = m.visitLocked(upd)
		}
		if upd.IsEdge() {
			// Vertex ops have a trivial pre-apply phase (classVertexOp,
			// no enumeration); skip the fan-out barrier for them.
			fanOut(visit, m.fanPrepare)
		} else {
			for _, mq := range visit {
				mq.eng.shared = sharedPending{verdict: classVertexOp}
			}
		}
		var preApply time.Duration
		if tr != nil {
			preApply = clk.Lap()
		}
		if err := upd.Apply(m.g); err != nil {
			for _, mq := range all {
				m.foldLocked(mq)
				mq.err = fmt.Errorf("update %d (%v): %w", i, upd, err)
			}
			failed = true
			break
		}
		var commit time.Duration
		if tr != nil {
			commit = clk.Lap()
		}
		fanOut(visit, m.fanCommit)
		if routed {
			// One count per update stands for every query not visited; a
			// query's own share is worked out when somebody reads it.
			skipped := uint64(live - len(visit))
			dc.Updates++
			dc.Visited += uint64(len(visit))
			dc.Skipped += skipped
			if tr != nil && skipped > 0 {
				tr.SafeN(skipped)
			}
		}
		if tr != nil {
			postApply := clk.Lap()
			orig := i
			if idx != nil {
				orig = idx[i]
			}
			wait, assemble := bt.stageWaits(orig)
			observeUpdateStages(tr, upd, wait, assemble, preApply, commit, postApply)
		}
		if len(visit) > 0 && m.OnDelta != nil {
			// The barriers of a visit-everything driver were also where the
			// goroutines an OnDelta wakes (the serving layer's connection
			// writers) got a processor. Most updates now run no barrier, and
			// a woken goroutine could sit behind this loop until the
			// scheduler's 10 ms preemption tick; so step aside at a bounded
			// rate, after an update that did work.
			if now := time.Now(); now.Sub(yielded) >= yieldEvery {
				yielded = now
				runtime.Gosched()
			}
		}
		was := live
		for _, mq := range visit {
			if routed {
				mq.squared++
			}
			if mq.err != nil {
				// It sits out the rest of the call: settle what it was
				// spared so far, the rest is written off below.
				m.foldLocked(mq)
				live--
			}
		}
		if live < was {
			// Compact out queries that just failed.
			m.active = m.active[:0]
			for _, mq := range all {
				if mq.err == nil {
					m.active = append(m.active, mq)
				}
			}
			all = m.active
		}
	}
	if failed = failed || live < len(m.queries); failed {
		// The updates a failed query sat out are neither visited nor
		// skipped for it.
		for _, mq := range m.queries {
			if mq.err != nil {
				mq.squared = dc.Updates
			}
		}
	}
	return failed
}

// yieldEvery bounds how long runSharedLocked keeps its processor without
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

// fanOut runs fn over every query from min(GOMAXPROCS, len(qs)) worker
// goroutines (work-stealing by atomic index, since per-query cost is
// heavy-tailed) and joins them: the barrier that keeps all queries on the
// same side of each graph mutation. The caller runs one worker itself, so
// a single query never pays a goroutine switch.
func fanOut(qs []*multiQuery, fn func(*multiQuery)) {
	if len(qs) == 0 {
		return
	}
	if len(qs) == 1 {
		fn(qs[0])
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(qs) {
		workers = len(qs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(qs) {
					return
				}
				fn(qs[i])
			}
		}()
	}
	for {
		i := int(next.Add(1)) - 1
		if i >= len(qs) {
			break
		}
		fn(qs[i])
	}
	wg.Wait()
}

// collectErrsLocked joins every failed query's error into one combined
// error (nil when none failed) and clears the recorded errors, so a
// reported failure never resurfaces from a later Run or ProcessBatch.
func (m *MultiEngine) collectErrsLocked() error {
	var errs []error
	for _, mq := range m.queries {
		if mq.err != nil {
			errs = append(errs, fmt.Errorf("query %q: %w", mq.name, mq.err))
			mq.err = nil
		}
	}
	return errors.Join(errs...)
}

// Close releases every per-query engine's worker pool (see Engine.Close).
// Idempotent; the engines stay usable afterwards.
func (m *MultiEngine) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, mq := range m.queries {
		if mq.eng != nil {
			mq.eng.Close()
		}
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
			m.foldLocked(mq)
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
// Stats plus latency quantiles from the per-query histogram (zeros unless
// the engine was built with TrackQueries). The serving layer's /queries
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
// order. Deregistered queries are excluded; their merged latency
// histogram is available from ClosedLatency.
func (m *MultiEngine) QuerySnapshots() []QuerySnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]QuerySnapshot, 0, len(m.queries))
	for _, mq := range m.queries {
		if mq.eng == nil {
			continue
		}
		m.foldLocked(mq)
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

// ClosedLatency returns a copy of the merged per-update latency histogram
// of every deregistered tracked query (the latency counterpart of
// ClosedStats), or nil when no tracked query has deregistered.
func (m *MultiEngine) ClosedLatency() *obs.Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closedLat == nil {
		return nil
	}
	h := obs.NewHistogram()
	h.Merge(m.closedLat)
	return h
}

// TotalStats returns the sum of every query's Stats, live and
// deregistered alike: the monotonic aggregate view.
func (m *MultiEngine) TotalStats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	total := m.closed
	total.ThreadBusy = append([]time.Duration(nil), m.closed.ThreadBusy...)
	for _, mq := range m.queries {
		if mq.eng != nil {
			m.foldLocked(mq)
			total.Add(mq.eng.Stats())
		}
	}
	return total
}

// QueryNames returns the live query names in registration order.
func (m *MultiEngine) QueryNames() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, len(m.queries))
	for i, mq := range m.queries {
		out[i] = mq.name
	}
	return out
}

// Engine returns the per-query engine (e.g. to attach an OnMatch
// callback), or nil if the name is unknown. Must be called after Init.
// The pointer is invalidated by Deregister of the same name. The engine's
// own Stats are current as of this call only: updates the dispatch index
// accounts in bulk reach them when a MultiEngine accessor folds them in,
// so read per-query totals from Stats or QuerySnapshots.
func (m *MultiEngine) Engine(name string) *Engine {
	m.mu.Lock()
	defer m.mu.Unlock()
	if mq := m.findLocked(name); mq != nil {
		if mq.eng != nil {
			m.foldLocked(mq)
		}
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
			m.foldLocked(mq)
			qs = append(qs, QueryExport{Name: mq.name, Stats: mq.eng.Stats()})
		}
	}
	return fn(m.g, qs)
}
