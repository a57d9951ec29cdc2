package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"paracosm/internal/csm"
	"paracosm/internal/graph"
	"paracosm/internal/obs"
	"paracosm/internal/query"
	"paracosm/internal/stream"
)

// This file is the batch-dynamic executor v2 (DESIGN.md §15): instead of
// serializing on the first unsafe update (runBatch, Figure 6), updates
// are buffered into a window, coalesced (exact insert/delete pairs
// annihilate, repeated touches fold to their net effect), and scheduled
// into independent sets — "waves" — of updates with pairwise-disjoint
// conflict footprints, each wave committed with its unsafe enumerations
// running concurrently.
//
// Wave selection is a greedy, order-preserving independent-prefix scan:
// per round, walk the pending updates in window order, compute each
// edge update's footprint against the CURRENT graph, and select it if
// its footprint is disjoint from every footprint seen this round —
// selected or skipped alike, so an update never jumps ahead of an
// earlier conflicting one. Vertex ops and footprint overflows conflict
// with everything: they commit alone and stop the scan.
//
// Footprints must be current-state, not window-start: an insert
// committed in an earlier wave shortens distances, so a later update's
// runtime reads can escape its window-start ball. Against the current
// graph the escape is impossible — if an update's walk could cross a
// wave-mate's new edge, the crossing endpoint is reachable through
// wave-start edges within the footprint radius, putting it in both
// footprints and forcing the pair into different waves (the
// "first-crossing" argument of DESIGN.md §15).

// winRoundCap bounds wave-selection rounds per window. A window that is
// still not drained after this many rounds is a pathological conflict
// chain; the remainder commits serially (the exact v1 path), trading
// grouping for a hard bound on scheduling cost.
const winRoundCap = 32

// winSingleCap: consecutive singleton waves before the rest of the
// window drains serially. Singleton waves mean the scheduler is finding
// no disjointness (dense region or label-weak filter); each further
// round would re-pay a full footprint scan to select one update, which
// is strictly worse than the v1 serial path it degenerates to.
const winSingleCap = 2

// winConflictStreak: consecutive conflicting scans before nextWave cuts
// a round short. Once several adjacent updates in a row overlap the
// stamped set, later disjoint updates are unlikely and each test costs
// a footprint BFS; stopping early only shrinks the wave (sound — the
// remainder stays pending in window order).
const winConflictStreak = 8

// waveScheduler selects waves from a window's pending updates. The
// stamp array is epoch-stamped per round so clearing is O(1).
type waveScheduler struct {
	fs      graph.FootprintScratch
	stamp   []uint32
	epoch   uint32
	pending []int32
	members []int32
	keep    []int32
}

func (ws *waveScheduler) reset(n int) {
	ws.pending = ws.pending[:0]
	for i := 0; i < n; i++ {
		ws.pending = append(ws.pending, int32(i))
	}
}

// nextWave removes and returns the next wave from the pending updates:
// a maximal set of pairwise-disjoint updates no member of which
// conflicts with an earlier pending update. The returned slice aliases
// scheduler scratch, valid until the next call. len(result) >= 1
// whenever pending is non-empty, so the caller always makes progress.
func (ws *waveScheduler) nextWave(g *graph.Graph, batch stream.Stream, radius, max int, labelOK []bool) []int32 {
	nv := g.NumVertices()
	for len(ws.stamp) < nv {
		ws.stamp = append(ws.stamp, 0)
	}
	ws.epoch++
	if ws.epoch == 0 {
		for i := range ws.stamp {
			ws.stamp[i] = 0
		}
		ws.epoch = 1
	}
	ws.members = ws.members[:0]
	ws.keep = ws.keep[:0]
	i, streak := 0, 0
	for ; i < len(ws.pending); i++ {
		j := ws.pending[i]
		upd := batch[j]
		barrier := !upd.IsEdge()
		var f []graph.VertexID
		if !barrier {
			var over bool
			f, over = ws.fs.Footprint(g, upd.U, upd.V, radius, max, labelOK)
			barrier = over
		}
		if barrier {
			// Conflicts with everything: commits alone if it is the
			// first pending update, else waits for a later round. Either
			// way nothing after it may be selected (it would jump ahead
			// of a conflicting update), so the scan stops.
			if len(ws.members) == 0 && len(ws.keep) == 0 {
				ws.members = append(ws.members, j)
				i++
			}
			break
		}
		conflict := false
		for _, x := range f {
			if ws.stamp[x] == ws.epoch {
				conflict = true
				break
			}
		}
		for _, x := range f {
			ws.stamp[x] = ws.epoch
		}
		if conflict {
			ws.keep = append(ws.keep, j)
			streak++
			if streak >= winConflictStreak {
				i++
				break
			}
		} else {
			ws.members = append(ws.members, j)
			streak = 0
		}
	}
	ws.keep = append(ws.keep, ws.pending[i:]...)
	ws.pending, ws.keep = ws.keep, ws.pending
	return ws.members
}

// winResult accumulates one window update's outcome across the wave
// phases; OnDelta emission is deferred to window end so subscribers see
// deltas in window order regardless of wave execution order.
type winResult struct {
	d       csm.Delta
	r       innerResult
	err     error
	elapsed time.Duration // member-attributed busy time (find + apply + ADS)
	reclass bool
	// escalate marks a member whose sequential find exhausted the node
	// budget; frontier then holds the unexplored remainder for the pool.
	escalate bool
	emit     bool
	frontier []csm.State
}

func (res *winResult) reset() {
	f := res.frontier[:0]
	*res = winResult{frontier: f}
}

// winScratch is the engine's reusable windowed-executor state.
type winScratch struct {
	coal     *stream.Coalescer
	buf      stream.Stream
	verdicts []classification
	sched    waveScheduler
	results  []winResult
	neg      []int32 // unsafe deletes of the current wave
	pos      []int32 // unsafe inserts of the current wave
	labelOK  []bool
	radius   int

	// local records whether the algorithm implements csm.FootprintLocal;
	// if not, waves are never formed (every window drains serially) —
	// the algorithm's find or ADS maintenance is order-dependent beyond
	// footprint disjointness (e.g. SJ-Tree's ΔM⁺ queue).
	local bool

	// Adaptive scheduler bypass: when a probed window yields no
	// multi-update wave (dense region or label-weak filter), the
	// footprint scans were pure overhead, so the next `skipSched`
	// windows drain serially without scheduling; `backoff` doubles up
	// to winSkipCap on each fruitless probe and resets on the first
	// parallel wave. Bypassed windows are exactly the v1 serial path.
	skipSched int
	backoff   int
}

// winSkipCap bounds the scheduler-bypass backoff: at most this many
// consecutive windows run serially before the scheduler is probed again.
const winSkipCap = 32

// ensureWin lazily builds the window scratch: the conflict-footprint
// radius is the query vertex count (the maximum candidate-walk length
// and ADS cascade depth) and the label mask marks the query's vertex
// labels as relevant.
func (e *Engine) ensureWin() *winScratch {
	if e.win != nil {
		return e.win
	}
	w := &winScratch{coal: stream.NewCoalescer(), radius: e.q.NumVertices()}
	_, w.local = e.algo.(csm.FootprintLocal)
	var maxL graph.Label
	for u := 0; u < e.q.NumVertices(); u++ {
		if l := e.q.Label(query.VertexID(u)); l > maxL {
			maxL = l
		}
	}
	w.labelOK = make([]bool, maxL+1)
	for u := 0; u < e.q.NumVertices(); u++ {
		w.labelOK[e.q.Label(query.VertexID(u))] = true
	}
	e.win = w
	return w
}

// classifyStageA is Stage A of the inter-update executor: parallel
// classification of batch into verdicts (read-only against the graph
// and ADS). Returns the wall-clock cost. Shared by runBatch and
// runWindow.
func (e *Engine) classifyStageA(batch stream.Stream, verdicts []classification) time.Duration {
	t := time.Now()
	k := len(batch)
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
		for x := 0; x < workers; x++ {
			lo := x * chunk
			hi := lo + chunk
			if hi > k {
				hi = k
			}
			if lo >= hi {
				break
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
	return time.Since(t)
}

// runWindow executes one window of the batch-dynamic executor: coalesce
// up to cfg.Window raw updates, classify the survivors in parallel,
// schedule them into waves and commit each wave with its unsafe
// enumerations concurrent. Consumes min(cfg.Window, len(s)) raw updates
// and returns the first (window-order) per-update error, if any.
func (e *Engine) runWindow(ctx context.Context, s stream.Stream) (int, error) {
	k := e.cfg.Window
	if k > len(s) {
		k = len(s)
	}
	raw := s[:k]
	w := e.ensureWin()
	tr := e.cfg.Tracer

	tC := time.Now()
	var cst stream.CoalesceStats
	w.buf, cst = w.coal.Coalesce(w.buf[:0], raw)
	coalesceCost := time.Since(tC)
	batch := w.buf
	n := len(batch)

	for cap(w.results) < n {
		w.results = append(w.results[:cap(w.results)], winResult{})
	}
	w.results = w.results[:n]
	for i := range w.results {
		w.results[i].reset()
	}
	for len(w.verdicts) < n {
		w.verdicts = append(w.verdicts, classDirect)
	}
	w.verdicts = w.verdicts[:n]

	var classifyCost time.Duration
	if n > 0 {
		classifyCost = e.classifyStageA(batch, w.verdicts)
	}
	e.statsMu.Lock()
	e.stats.Batches++
	e.stats.TTotal += classifyCost
	e.statsMu.Unlock()
	if tr != nil {
		tr.Classify(classifyCost)
	}

	var conflictCost, parallelSpan time.Duration
	wc := WindowCounters{Windows: 1, Coalesced: cst.Removed(), Annihilated: cst.AnnihilatedPairs}
	w.sched.reset(n)
	rounds, singles := 0, 0
	probe := true
	if !w.local {
		probe = false
		singles = winSingleCap // non-local algorithm: always serial
	} else if w.skipSched > 0 && n > 0 {
		w.skipSched--
		probe = false
		singles = winSingleCap // forces the serial-drain branch
	}
	for len(w.sched.pending) > 0 {
		if rounds == winRoundCap || singles >= winSingleCap {
			// Pathological conflict chain: commit the remainder serially
			// (the v1 path), bounding scheduling cost.
			for _, j := range w.sched.pending {
				e.runWinOne(ctx, batch, int(j))
				wc.FallbackSerial++
				wc.Groups++
			}
			if wc.MaxGroup < 1 {
				wc.MaxGroup = 1
			}
			w.sched.pending = w.sched.pending[:0]
			break
		}
		rounds++
		tB := time.Now()
		members := w.sched.nextWave(e.g, batch, w.radius, e.cfg.FootprintCap, w.labelOK)
		conflictCost += time.Since(tB)
		wc.Groups++
		if len(members) > wc.MaxGroup {
			wc.MaxGroup = len(members)
		}
		if len(members) == 1 {
			singles++
			e.runWinOne(ctx, batch, int(members[0]))
			wc.FallbackSerial++
		} else {
			singles = 0
			tP := time.Now()
			e.runWinWave(ctx, batch, members)
			parallelSpan += time.Since(tP)
			wc.UnsafeParallel += len(members)
		}
	}

	if probe && n > 0 {
		if wc.UnsafeParallel > 0 {
			w.backoff = 0
		} else {
			w.backoff = w.backoff*2 + 1
			if w.backoff > winSkipCap {
				w.backoff = winSkipCap
			}
			w.skipSched = w.backoff
		}
	}

	e.statsMu.Lock()
	e.stats.Window.Add(wc)
	e.statsMu.Unlock()
	if tr != nil {
		st := tr.Stages()
		st.Observe(obs.StageCoalesce, coalesceCost)
		st.Observe(obs.StageConflictBuild, conflictCost)
		st.Observe(obs.StageParallelUnsafe, parallelSpan)
		tr.Window(uint64(wc.Coalesced), uint64(wc.Annihilated), uint64(wc.UnsafeParallel), uint64(wc.FallbackSerial))
		tr.Stage(obs.Event{
			Op: obs.OpWindow, Coalesce: coalesceCost, ConflictBuild: conflictCost,
			ParallelUnsafe: parallelSpan, Total: coalesceCost + conflictCost + parallelSpan,
		})
	}

	// Deferred OnDelta emission, in window order: wave execution order is
	// not window order, but commuting updates produce order-independent
	// deltas, so emitting here restores the sequential observable order.
	var firstErr error
	for j := 0; j < n; j++ {
		res := &w.results[j]
		if res.emit && e.cfg.OnDelta != nil {
			e.cfg.OnDelta(batch[j], res.d, res.err != nil)
		}
		if firstErr == nil && res.err != nil {
			firstErr = res.err
		}
	}
	return k, firstErr
}

// runWinOne commits the window update at index j alone — the serial
// fallback, identical to one v1 Stage-B step except that OnDelta
// emission is deferred to window end.
func (e *Engine) runWinOne(ctx context.Context, batch stream.Stream, j int) {
	w := e.win
	upd := batch[j]
	res := &w.results[j]
	v := w.verdicts[j]
	if (v == classSafeDegree || v == classSafeADS) && upd.IsEdge() {
		// Earlier waves may have changed endpoint degrees or the ADS
		// since Stage-A classification; re-validate, as runBatch does.
		if rv := e.classify(upd); rv == classUnsafe {
			v = classUnsafe
			res.reclass = true
			e.statsMu.Lock()
			e.stats.Reclassified++
			e.statsMu.Unlock()
		} else {
			v = rv
		}
		w.verdicts[j] = v
	}
	switch v {
	case classVertexOp, classUnsafe:
		e.winDefer = res
		_, err := e.processUpdate(ctx, upd, v, res.reclass)
		e.winDefer = nil
		res.err = err
		e.statsMu.Lock()
		if v == classVertexOp {
			e.stats.VertexUpdates++
			e.stats.SafeUpdates++
		} else {
			e.stats.UnsafeUpdates++
		}
		e.statsMu.Unlock()
	default:
		e.applySafe(upd, v, res)
	}
}

// applySafe commits a safe-classified update: mutation plus (below
// stage-3 safety) ADS maintenance, no enumeration — the runBatch safe
// branch with the OnDelta emission deferred into res.
func (e *Engine) applySafe(upd stream.Update, v classification, res *winResult) {
	t0 := time.Now()
	if err := upd.Apply(e.g); err != nil {
		res.err = err
		return
	}
	var total time.Duration
	res.d, total = e.commitSafe(upd, v, t0, 0, false)
	res.elapsed += total
	res.emit = true
}

// runWinWave commits one multi-update wave. Members have pairwise
// disjoint conflict footprints, so the phases below reproduce exactly
// the sequential (window-order) execution:
//
//	0. serial:   re-validate stale degree/ADS verdicts (wave-start state)
//	1. parallel: expiring-match enumeration for unsafe deletes — reads
//	   the wave-start graph, which disjointness makes indistinguishable
//	   from each member's sequential pre-state
//	1.5 serial:  finish over-budget delete searches on the worker pool
//	2. serial:   mutations + ADS maintenance, in window order
//	3. parallel: new-match enumeration for unsafe inserts (post-state)
//	3.5 serial:  finish over-budget insert searches on the worker pool
//	4. serial:   accounting, tracing, emission marking
func (e *Engine) runWinWave(ctx context.Context, batch stream.Stream, members []int32) {
	w := e.win
	deadline, hasDeadline := ctx.Deadline()

	for _, j := range members {
		v := w.verdicts[j]
		if v == classSafeDegree || v == classSafeADS {
			if rv := e.classify(batch[j]); rv != v {
				if rv == classUnsafe {
					w.results[j].reclass = true
					e.statsMu.Lock()
					e.stats.Reclassified++
					e.statsMu.Unlock()
				}
				w.verdicts[j] = rv
			}
		}
	}

	w.neg, w.pos = w.neg[:0], w.pos[:0]
	for _, j := range members {
		if w.verdicts[j] == classUnsafe {
			if batch[j].Op == stream.DeleteEdge {
				w.neg = append(w.neg, j)
			} else {
				w.pos = append(w.pos, j)
			}
		}
	}

	budget := uint64(e.cfg.EscalateNodes)
	if e.cfg.Threads <= 1 {
		budget = ^uint64(0)
	}

	e.waveFindAll(w.neg, batch, deadline, hasDeadline, false, budget)
	e.waveEscalate(w.neg)

	for _, j := range members {
		res := &w.results[j]
		upd := batch[j]
		v := w.verdicts[j]
		if v != classUnsafe {
			e.applySafe(upd, v, res)
			continue
		}
		t0 := time.Now()
		if err := upd.Apply(e.g); err != nil {
			res.err = err
			continue
		}
		tA := time.Now()
		e.algo.UpdateADS(upd)
		res.d.TADS = time.Since(tA)
		res.elapsed += time.Since(t0)
	}

	e.waveFindAll(w.pos, batch, deadline, hasDeadline, true, budget)
	e.waveEscalate(w.pos)

	for _, j := range members {
		res := &w.results[j]
		if w.verdicts[j] != classUnsafe || res.err != nil {
			continue // safe members were finalized by applySafe
		}
		if batch[j].Op == stream.DeleteEdge {
			res.d.Negative = res.r.matches
		} else {
			res.d.Positive = res.r.matches
		}
		res.d.Nodes = res.r.nodes
		if res.r.timeout {
			res.err = csm.ErrDeadline
		}
		e.account(&res.d, res.r.seqBusy, res.elapsed)
		e.statsMu.Lock()
		e.stats.UnsafeUpdates++
		e.statsMu.Unlock()
		if e.cfg.Tracer != nil {
			e.traceUpdate(batch[j], classUnsafe, res.reclass, &res.d, &res.r, res.elapsed, res.err != nil)
		}
		res.emit = true
	}
}

// waveFindAll runs the find phase of the listed wave members
// concurrently on up to Threads goroutines (atomic work-stealing, the
// caller runs one worker itself), skipping members that already failed.
// No pool epoch is in flight, so goroutine x searches on the engine's
// searcher x.
//
//paracosm:allocs wave fan-out allocates goroutines, amortized over the wave
func (e *Engine) waveFindAll(work []int32, batch stream.Stream, deadline time.Time, hasDeadline bool, positive bool, budget uint64) {
	if len(work) == 0 {
		return
	}
	e.beginPhase(deadline, hasDeadline, positive)
	w := e.win
	var next atomic.Int64
	run := func(sr *searcher) {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(work) {
				return
			}
			if res := &w.results[work[i]]; res.err == nil {
				e.findLocal(sr, res, batch[work[i]], budget)
			}
		}
	}
	workers := e.cfg.Threads
	if workers > len(work) {
		workers = len(work)
	}
	if workers > 1 {
		e.ensureWorkers()
	}
	var wg sync.WaitGroup
	for x := 1; x < workers; x++ {
		wg.Add(1)
		go func(sr *searcher) {
			defer wg.Done()
			run(sr)
		}(e.searchers[x])
	}
	run(e.searchers[0])
	wg.Wait()
}

// findLocal is one wave member's sequential find phase on searcher sr: the
// drain loop of findMatchesParallel under the same node budget. On budget
// exhaustion the unexplored frontier moves to res.frontier and
// res.escalate is set for waveEscalate to finish on the worker pool; no
// node is re-explored and no match double-reported.
//
//paracosm:noalloc
func (e *Engine) findLocal(sr *searcher, res *winResult, upd stream.Update, budget uint64) {
	t0 := time.Now()
	sr.reset()
	e.algo.Roots(upd, sr.push)
	switch sr.drain(budget, false) {
	case stopBudget:
		res.escalate = true
		res.frontier, sr.stack = sr.stack, res.frontier[:0]
	case stopAborted:
		res.r.timeout = true
	}
	res.r.nodes += sr.nodes
	res.r.matches += sr.matches
	dt := time.Since(t0)
	res.r.seqBusy += dt
	res.d.TFind += dt
	res.elapsed += dt
}

// waveEscalate finishes over-budget member searches on the persistent
// worker pool, one member at a time (pool epochs cannot overlap),
// continuing each frontier exactly where findLocal stopped, in the phase
// waveFindAll opened.
func (e *Engine) waveEscalate(work []int32) {
	w := e.win
	for _, j := range work {
		res := &w.results[j]
		if !res.escalate || res.err != nil || res.r.timeout || len(res.frontier) == 0 {
			continue
		}
		res.escalate = false
		t0 := time.Now()
		par := e.runEpoch(res.frontier)
		res.frontier = res.frontier[:0]
		res.r.matches += par.matches
		res.r.nodes += par.nodes
		res.r.timeout = res.r.timeout || par.timeout
		res.r.escalated = true
		res.r.resplits += par.resplits
		dt := time.Since(t0)
		res.d.TFind += dt
		res.elapsed += dt
	}
}
