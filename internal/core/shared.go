package core

import (
	"context"
	"time"

	"paracosm/internal/csm"
	"paracosm/internal/stream"
)

// This file is the engine side of the shared-graph multi-query path (see
// DESIGN.md §13). A MultiEngine owns ONE data graph that every registered
// query's engine reads; per-query state is index state only (ADS, scratch
// buffers, stats). The driver processes the stream in lockstep, splitting
// each update into two phases around the single graph mutation:
//
//	sharedPrepare (pre-apply, read-only):  classify the update against the
//	  current graph/ADS state; for an unsafe DeleteEdge, enumerate the
//	  expiring matches while the edge still exists.
//	-- the driver applies the update to the shared graph exactly once --
//	sharedCommit (post-apply): maintain the ADS, enumerate new matches for
//	  an unsafe AddEdge, and account/trace/report the combined delta.
//
// Neither phase mutates the graph — mutation is the driver's alone — so
// any number of engines run each phase concurrently over the shared graph
// under its concurrent-readers contract. The phases reuse the engine's
// classifier, find executor, accounting and callbacks, so a query observes
// exactly the deltas it would have produced running alone over a private
// clone; TestMultiEngineSharedOracle asserts that equivalence.

// sharedPending carries one update's state from sharedPrepare to
// sharedCommit: the classifier verdict, the pre-apply search result (for
// deletions), and the prepare-phase elapsed time. The driver serializes
// the two phases per engine, so the field needs no lock.
type sharedPending struct {
	verdict classification
	d       csm.Delta
	r       innerResult
	seqBusy time.Duration
	// prepElapsed is the caller time spent inside sharedPrepare; commit
	// adds its own share so TTotal never includes the driver's fan-out
	// barrier waits.
	prepElapsed time.Duration
}

// sharedFullPath reports whether the verdict requires the full
// (ADS + enumeration) path.
func sharedFullPath(v classification) bool {
	return v == classUnsafe || v == classDirect
}

// sharedPrepare is the pre-apply phase of one shared-graph update: it runs
// strictly read-only against the graph. With the inter-update executor
// enabled it classifies the update against the CURRENT state (the lockstep
// driver applies one update at a time, so — unlike the batch executor's
// stage A — the verdict never needs re-validation); otherwise every edge
// update takes the full path, matching ProcessUpdate. For a DeleteEdge on
// the full path it enumerates the expiring matches now, while the edge is
// still present.
func (e *Engine) sharedPrepare(ctx context.Context, upd stream.Update) {
	t0 := time.Now()
	p := &e.shared
	*p = sharedPending{}
	switch {
	case !upd.IsEdge():
		p.verdict = classVertexOp
	case e.cfg.InterUpdate:
		p.verdict = e.classify(upd)
	default:
		p.verdict = classDirect
	}
	if upd.Op == stream.DeleteEdge && sharedFullPath(p.verdict) {
		deadline, hasDeadline := ctx.Deadline()
		simulate := e.cfg.Simulate && e.cfg.Threads > 1
		p.r, p.seqBusy = e.findPhase(deadline, hasDeadline, upd, false, simulate, &p.d)
		p.d.Negative, p.d.Nodes = p.r.matches, p.r.nodes
	}
	p.prepElapsed = time.Since(t0)
}

// sharedCommit is the post-apply phase: the driver has applied upd to the
// shared graph, every engine now maintains its own ADS and (for an unsafe
// AddEdge) enumerates the new matches. It finalizes accounting, tracing
// and the OnDelta callback exactly like the private-graph paths, and
// returns csm.ErrDeadline under the same timeout contract as
// ProcessUpdate: the mutation and ADS maintenance are applied, the Delta
// OnDelta reports is a partial lower-bound ΔM.
func (e *Engine) sharedCommit(ctx context.Context, upd stream.Update) error {
	t0 := time.Now()
	p := &e.shared
	simulate := e.cfg.Simulate && e.cfg.Threads > 1

	if sharedFullPath(p.verdict) || p.verdict == classVertexOp {
		tA := time.Now()
		e.algo.UpdateADS(upd)
		p.d.TADS = time.Since(tA)
		if upd.Op == stream.AddEdge {
			deadline, hasDeadline := ctx.Deadline()
			p.r, p.seqBusy = e.findPhase(deadline, hasDeadline, upd, true, simulate, &p.d)
			p.d.Positive, p.d.Nodes = p.r.matches, p.r.nodes
		}
		var err error
		if p.r.timeout {
			err = csm.ErrDeadline
		}
		total := p.prepElapsed + time.Since(t0)
		e.account(&p.d, p.seqBusy, total)
		if e.cfg.InterUpdate {
			// Parity with runBatch's executor counters.
			e.statsMu.Lock()
			if p.verdict == classVertexOp {
				e.stats.VertexUpdates++
				e.stats.SafeUpdates++
			} else {
				e.stats.UnsafeUpdates++
			}
			e.statsMu.Unlock()
		}
		if e.cfg.Tracer != nil {
			if simulate {
				total = p.d.TADS + p.d.TFind
			}
			e.traceUpdate(upd, p.verdict, false, &p.d, &p.r, total, err != nil)
		}
		if e.cfg.OnDelta != nil {
			e.cfg.OnDelta(upd, p.d, err != nil)
		}
		return err
	}

	// Safe verdicts: the ΔM is provably empty, so enumeration is skipped.
	e.commitSafe(upd, p.verdict, t0, p.prepElapsed)
	return nil
}
