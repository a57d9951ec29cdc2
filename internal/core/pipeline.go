package core

import (
	"context"
	"time"

	"paracosm/internal/csm"
	"paracosm/internal/obs"
	"paracosm/internal/stream"
)

// This file is the one per-update pipeline of the package. Every update,
// in either driver, runs two phases around its single graph mutation:
//
//	prepare (pre-apply, read-only): classify the update against the
//	  current graph/ADS state (InterUpdate on; classDirect otherwise);
//	  for a DeleteEdge on the full path, enumerate the expiring matches
//	  while the edge still exists.
//	-- the driver applies the update to the graph exactly once --
//	commit (post-apply): maintain the ADS (unless stage 3 proved it
//	  untouched), enumerate new matches for an AddEdge on the full path,
//	  then account, trace and report the delta.
//
// The two drivers differ only around the mutation. Engine.ProcessUpdate
// runs prepare, Apply, commit on the engine's own graph, and Engine.Run is
// that call in a loop. MultiEngine's lockstep loop fans prepare out over
// the visited queries, applies the update to the one shared graph, then
// fans commit out (DESIGN.md §13); neither phase mutates the graph, so any
// number of engines run a phase concurrently under its concurrent-readers
// contract. A query therefore observes exactly the deltas it would have
// produced running alone over a private clone; TestMultiEngineSharedOracle
// asserts that equivalence.
//
// The paper's Figure 6 executor classifies a batch up front, so a
// degree/ADS verdict can go stale behind an earlier update of the batch
// and must be re-validated at apply time. Classifying each update when it
// runs reaches the same verdicts without that pass: label verdicts are
// permanent (vertex labels never change), and a fresh classification is
// exactly what re-validation computed.

// pending is one update in flight from prepare to commit: the verdict, the
// pre-apply search result (deletions) and the update's clock.
type pending struct {
	verdict classification
	d       csm.Delta
	r       innerResult
	seqBusy time.Duration
	// t0 is when the update's clock last started and prior the time it had
	// run before that: the lockstep driver stops the clock across its
	// barriers and the shared apply, so TTotal never includes another
	// query's work or a barrier wait.
	t0    time.Time
	prior time.Duration
	// simClassify is, under Simulate, the classification time ÷ Threads:
	// a full-path update's share of the parallel classification the
	// simulated schedule charges (safe updates divide their whole latency).
	simClassify time.Duration
}

// simulating reports whether find phases and latencies are simulated for
// Threads virtual workers (see sim.go).
func (e *Engine) simulating() bool { return e.cfg.Simulate && e.cfg.Threads > 1 }

// prepare is the pre-apply phase of upd: it starts the update's clock,
// decides its verdict and, for a DeleteEdge on the full path, runs the
// find phase while the edge is still present. It never mutates the graph.
//
//paracosm:noalloc
func (e *Engine) prepare(ctx context.Context, upd stream.Update) {
	p := &e.pend
	*p = pending{verdict: classDirect, t0: time.Now()}
	if e.cfg.InterUpdate {
		p.verdict = e.classify(upd)
		if p.verdict == classUnsafe && e.simulating() {
			p.simClassify = time.Since(p.t0) / time.Duration(e.cfg.Threads)
		}
	}
	if upd.Op == stream.DeleteEdge && !p.verdict.safe() {
		deadline, hasDeadline := ctx.Deadline()
		p.r, p.seqBusy = e.findPhase(deadline, hasDeadline, upd, false, &p.d)
		p.d.Negative, p.d.Nodes = p.r.matches, p.r.nodes
	}
}

// commit is the post-apply phase of upd, which the driver has applied: ADS
// maintenance and, for an AddEdge on the full path, the find phase; then
// the one accounting, trace and OnDelta site of every update. It returns
// csm.ErrDeadline under ProcessUpdate's timeout contract: mutation and ADS
// maintenance applied, the reported Delta a partial lower-bound ΔM.
// OnDelta fires only here, so a mutation error never reaches it.
//
//paracosm:noalloc
func (e *Engine) commit(ctx context.Context, upd stream.Update) error {
	p := &e.pend
	var err error
	var total time.Duration
	if p.verdict.safe() {
		total = e.commitSafe(upd, p)
	} else {
		tA := time.Now()
		e.algo.UpdateADS(upd)
		p.d.TADS = time.Since(tA)
		if upd.Op == stream.AddEdge {
			deadline, hasDeadline := ctx.Deadline()
			p.r, p.seqBusy = e.findPhase(deadline, hasDeadline, upd, true, &p.d)
			p.d.Positive, p.d.Nodes = p.r.matches, p.r.nodes
		}
		if p.r.timeout {
			// Either find phase may have timed out; the mutation and ADS
			// update ran regardless (the timeout contract).
			err = csm.ErrDeadline
		}
		total = e.account(p)
	}
	if e.cfg.Tracer != nil {
		e.traceUpdate(upd, p, total, err != nil)
	}
	if e.cfg.OnDelta != nil {
		e.cfg.OnDelta(upd, p.d, err != nil)
	}
	return err
}

// commitSafe is commit's branch for an update the classifier proved safe:
// the ΔM is empty by construction, so enumeration is skipped entirely, but
// label- and degree-safe updates must still maintain the ADS: the degree
// change at the endpoints can flip candidacy of other query vertices even
// though this edge matches none. Only stage-3 safety (AffectsADS == false)
// proves the ADS untouched, so only then is maintenance skipped (the
// γ·T_ADS term of the speedup model, Eq. 1). It returns the update's
// latency.
//
// Eq. 1 models safe updates as M-way-parallel ADS maintenance (γ·T_ADS/M).
// The paper's C++ system updates the index concurrently under fine-grained
// locks; this Go port keeps index mutation single-writer for memory-safety,
// so the M-way discount is applied in simulate mode only and the limitation
// is documented in DESIGN.md.
//
//paracosm:noalloc
func (e *Engine) commitSafe(upd stream.Update, p *pending) time.Duration {
	if p.verdict != classSafeADS {
		tA := time.Now()
		e.algo.UpdateADS(upd)
		p.d.TADS = time.Since(tA)
	}
	total := p.prior + time.Since(p.t0)
	if e.simulating() {
		p.d.TADS /= time.Duration(e.cfg.Threads)
		total /= time.Duration(e.cfg.Threads)
	}
	e.accountSafe(p.verdict, 1, p.d.TADS, total)
	return total
}

// account books one full-path update into the stats and the latency
// histogram and returns its latency: the caller-thread time spent on it
// (prior plus the time since t0), or under Simulate the simulated phases.
func (e *Engine) account(p *pending) time.Duration {
	var total time.Duration
	if e.simulating() {
		// TFind is already the simulated parallel time; wall-clock elapsed
		// would count the sequential execution the simulation replaces.
		total = p.d.TADS + p.d.TFind + p.simClassify
	} else {
		total = p.prior + time.Since(p.t0)
	}
	e.statsMu.Lock()
	e.stats.Updates++
	e.stats.Positive += p.d.Positive
	e.stats.Negative += p.d.Negative
	e.stats.Nodes += p.d.Nodes
	e.stats.TADS += p.d.TADS
	e.stats.TFind += p.d.TFind
	e.stats.TTotal += total
	if p.seqBusy > 0 {
		// Attribute the sequential find phase to the caller slot so the
		// per-thread busy CDF (Figure 10) covers the whole search.
		if len(e.stats.ThreadBusy) == 0 {
			e.stats.ThreadBusy = append(e.stats.ThreadBusy, 0)
		}
		e.stats.ThreadBusy[0] += p.seqBusy
	}
	if p.r.timeout {
		e.stats.Timeouts++
	}
	switch p.verdict {
	case classUnsafe:
		e.stats.UnsafeUpdates++
	case classVertexOp:
		e.stats.VertexUpdates++
		e.stats.SafeUpdates++
	}
	e.statsMu.Unlock()
	if e.lat != nil {
		e.lat.Observe(total)
	}
	return total
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

// findPhase runs the find-matches phase — real or simulated — filling
// d.TFind and returning the inner result plus the caller-thread busy
// time (0 in simulate mode: findMatchesSimulated attributes per-worker
// loads, including the caller slot, itself).
//
//paracosm:noalloc
func (e *Engine) findPhase(deadline time.Time, hasDeadline bool, upd stream.Update, positive bool, d *csm.Delta) (innerResult, time.Duration) {
	if e.simulating() {
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
// are constants, so even the traced path allocates nothing per update. A
// safe update's event carries no nodes or matches: its interesting fields
// are the class (which stage proved safety) and the tiny latency.
func (e *Engine) traceUpdate(upd stream.Update, p *pending, total time.Duration, timeout bool) {
	e.cfg.Tracer.Update(obs.Event{
		Op:        upd.Op.String(),
		U:         uint32(upd.U),
		V:         uint32(upd.V),
		Class:     p.verdict.traceClass(),
		Escalated: p.r.escalated,
		Timeout:   timeout,
		Nodes:     p.d.Nodes,
		Resplits:  p.r.resplits,
		Matches:   p.d.Positive + p.d.Negative,
		ADS:       p.d.TADS,
		Find:      p.d.TFind,
		Total:     total,
	})
}
