package core

import (
	"sync/atomic"
	"time"
	"unsafe"

	"paracosm/internal/csm"
	"paracosm/internal/stream"
)

// innerResult carries the outcome of one find-matches phase.
type innerResult struct {
	matches uint64
	nodes   uint64
	timeout bool
	// seqBusy is the caller-thread time spent in the sequential phase
	// (root collection + pre-escalation DFS); account() attributes it to
	// ThreadBusy[0] so Figure 10's CDF covers the whole search. It stays 0
	// in simulate mode, which attributes every slot itself.
	seqBusy time.Duration
	// escalated and resplits describe this update's trip through the
	// parallel phase, for the per-update trace event (simulate mode
	// escalates by the same rule but shares no work, so resplits stay
	// zero there).
	escalated bool
	resplits  uint64
}

// pollEvery is how many search nodes a searcher explores between two
// looks at the clock and the abort flag: a deadline stops every searcher
// within this many nodes of expiring — plus, where the last level is
// counted (see drain), the one adjacency scan under way.
const pollEvery = 1024

// searchPhase is what the searchers of one find phase share. The driving
// goroutine writes it in beginPhase before any searcher starts; while they
// run it is read-only except for the abort flag.
type searchPhase struct {
	deadline    time.Time
	hasDeadline bool
	positive    bool
	// aborted is set by the first searcher to see the deadline pass, and
	// tells the rest — at their next poll, or before they start another
	// span — to stop.
	aborted atomic.Bool
}

// stop reports whether the phase is over its deadline, raising the abort
// flag when it finds out first.
//
//paracosm:noalloc
func (p *searchPhase) stop() bool {
	if p.aborted.Load() {
		return true
	}
	if p.hasDeadline && time.Now().After(p.deadline) {
		p.aborted.Store(true)
		return true
	}
	return false
}

// searcherState is the private scratch of one searching goroutine. Nothing
// in it is written by any other goroutine while a search runs: the stack
// and the node being expanded are its own, the counters are plain adds,
// and the push callback handed to Roots/Expand is built once (in New) and
// captures only this block — so interface calls into the algorithm force
// no per-node escape and a search allocates nothing once the stack has
// grown. The escalating goroutine reads the counters after the search, with
// the pool's mutex ordering the accesses.
type searcherState struct {
	e     *Engine
	push  func(csm.State)
	stack []csm.State
	cur   csm.State
	slot  uint8  // stamped on every popped node, see csm.State.Slot
	poll  uint32 // nodes left until the next searchPhase.stop
	// Totals since reset: a whole sequential phase, or all the spans run on
	// this slot in one epoch.
	nodes    uint64
	matches  uint64
	resplits uint64
	busy     time.Duration
}

// searcher pads searcherState to whole cache lines, so that two searchers
// the allocator places back to back never share one: every searcher bumps
// its node counter per node.
type searcher struct {
	searcherState
	_ [64 - unsafe.Sizeof(searcherState{})%64]byte
}

func newSearcher(e *Engine, slot int) *searcher {
	sr := &searcher{}
	sr.e, sr.slot = e, uint8(slot)
	sr.push = func(s csm.State) { sr.stack = append(sr.stack, s) }
	return sr
}

// reset readies the searcher for a new phase or epoch, keeping the stack's
// capacity.
//
//paracosm:noalloc
func (sr *searcher) reset() {
	sr.stack = sr.stack[:0]
	sr.poll = pollEvery
	sr.nodes, sr.matches, sr.resplits, sr.busy = 0, 0, 0, 0
}

// drainStop says why drain returned.
type drainStop uint8

const (
	stopDrained drainStop = iota // the stack is empty: the subtree is done
	stopBudget                   // node budget spent; the unexplored frontier is on the stack
	stopAborted                  // deadline passed (here or on another searcher)
)

// drain is the one depth-first loop of the engine: it explores the
// searcher's stack until it is empty, the searcher has counted budget
// nodes, or the phase is aborted. The caller's sequential phase and every
// span of a parallel phase run it — they differ only in what they put on
// the stack first and in the two arguments. With share set (a span under
// LoadBalance) a searcher that sees starved siblings donates the shallow
// end of its stack to the job.
//
// With no OnMatch consumer and an algorithm that declares csm.LeafCounter,
// the last level of the tree is counted, not visited: a node one vertex
// short of a full embedding is answered with the number of its leaves,
// which are added to nodes and matches — and charged to the poll countdown
// — exactly as if each had been pushed, popped and found terminal.
//
//paracosm:noalloc
func (sr *searcher) drain(budget uint64, share bool) drainStop {
	e := sr.e
	leaves := e.leaves
	if e.OnMatch != nil {
		leaves = nil // the consumer is owed every embedding
	}
	for len(sr.stack) > 0 {
		if sr.nodes >= budget {
			return stopBudget
		}
		if sr.poll--; sr.poll == 0 {
			sr.poll = pollEvery
			if e.phase.stop() {
				return stopAborted
			}
		}
		top := len(sr.stack) - 1
		sr.cur = sr.stack[top]
		sr.stack = sr.stack[:top]
		sr.cur.Slot = sr.slot
		sr.nodes++
		if c, done := e.algo.Terminal(&sr.cur); done {
			sr.matches += c
			if e.OnMatch != nil {
				e.emitMatch(&sr.cur, c, e.phase.positive)
			}
			continue
		}
		if leaves != nil {
			if c, last := leaves.CountLeaves(&sr.cur); last {
				sr.nodes += c
				sr.matches += c
				// A count larger than what is left of the countdown must
				// land on it, not wrap past it: the next node polls.
				if c < uint64(sr.poll) {
					sr.poll -= uint32(c)
				} else {
					sr.poll = 1
				}
				continue
			}
		}
		e.algo.Expand(&sr.cur, sr.push)
		// A DFS stack is sorted by depth, shallowest at the bottom, so the
		// bottom entry alone says whether anything is shallow enough to
		// give away.
		if share && len(sr.stack) > 1 && int(sr.stack[0].Depth) <= e.splitDepth && e.job.Starved() {
			sr.donate()
		}
	}
	return stopDrained
}

// donate moves the shallow end of the stack — up to half of it, and only
// nodes no deeper than SPLIT_DEPTH, whose subtrees are worth a hand-over —
// into the job's queue with one locked append and a wakeup per seat it
// fills.
//
//paracosm:noalloc
func (sr *searcher) donate() {
	k := len(sr.stack) / 2
	for int(sr.stack[k-1].Depth) > sr.e.splitDepth {
		k--
	}
	sr.e.job.PushAll(sr.stack[:k])
	sr.stack = append(sr.stack[:0], sr.stack[k:]...)
	sr.resplits++
}

// beginPhase publishes a find phase's parameters to its searchers.
//
//paracosm:noalloc
func (e *Engine) beginPhase(deadline time.Time, hasDeadline, positive bool) {
	e.phase.deadline, e.phase.hasDeadline, e.phase.positive = deadline, hasDeadline, positive
	if e.phase.aborted.Load() { // a store is a full fence; every update passes here
		e.phase.aborted.Store(false)
	}
}

// findMatchesParallel is the inner-update executor (Algorithm 2) with an
// adaptive escalation front end. Real update streams are extremely
// heavy-tailed: most updates produce search trees of a handful of nodes
// (where any parallel coordination would dominate the work), while a rare
// update explodes into millions of nodes. The executor therefore starts
// every update sequentially on the caller's searcher under a node budget
// and escalates to the parallel phase — the rest of the caller's stack
// run as a job of the driver's pool, drained with adaptive re-splitting —
// only once the budget is exceeded, i.e. exactly for the updates where
// parallelism pays. It returns the result and the find phase's time, which
// is seqBusy unless the update escalated.
//
//paracosm:noalloc
func (e *Engine) findMatchesParallel(deadline time.Time, hasDeadline bool, upd stream.Update, positive bool) (innerResult, time.Duration) {
	var res innerResult
	t0 := clockNow()
	e.beginPhase(deadline, hasDeadline, positive)
	sr := e.searchers[0]
	sr.reset()
	e.algo.Roots(upd, sr.push)

	budget := uint64(e.cfg.EscalateNodes)
	if e.cfg.Threads <= 1 {
		budget = ^uint64(0) // never escalate
	}
	stop := sr.drain(budget, false)
	res.matches, res.nodes = sr.matches, sr.nodes
	res.timeout = stop == stopAborted
	res.seqBusy = clockNow() - t0
	if stop == stopBudget {
		e.runEpoch(&res, sr.stack)
		return res, clockNow() - t0
	}
	return res, res.seqBusy
}

// runEpoch is the parallel phase of Algorithm 2, adding to res: a job of
// the driver's pool over frontier, the caller's stack that ran out of
// budget. At most Threads goroutines take it over in spans: the caller on
// slot 0, free once Run has copied the frontier, and the workers the job
// admits, each on its seat's slot. The searchers' totals are folded here,
// once. An epoch allocates nothing once stacks and queue have grown.
//
//paracosm:noalloc
func (e *Engine) runEpoch(res *innerResult, frontier []csm.State) {
	e.ensureWorkers()
	for _, sr := range e.searchers {
		sr.reset()
	}
	parks, wakeups := e.job.Run(e.drv.workers(), e.cfg.Threads, maxSpan, frontier, e.spanTask)
	res.timeout, res.escalated = e.phase.aborted.Load(), true
	e.statsMu.Lock()
	for len(e.stats.ThreadBusy) < len(e.searchers) {
		e.stats.ThreadBusy = append(e.stats.ThreadBusy, 0)
	}
	for k, sr := range e.searchers {
		res.matches += sr.matches
		res.nodes += sr.nodes
		res.resplits += sr.resplits
		e.stats.ThreadBusy[k] += sr.busy
	}
	e.stats.Escalations++
	e.stats.Resplits += res.resplits
	e.stats.Parks += parks
	e.stats.Wakeups += wakeups
	e.statsMu.Unlock()
}

// maxSpan bounds a searcher's span of a frontier: at 64 cheap states a
// trip through the pool's mutex is amortized a hundredfold, and a longer
// span only grows what idle searchers cannot reach until it is donated.
const maxSpan = 64

// runSpan is the job's task function: the goroutine on seat k copies a
// span of the job's queue onto slot k's stack and drains it.
//
//paracosm:noalloc
func (e *Engine) runSpan(k int, span []csm.State) {
	if e.phase.aborted.Load() {
		return
	}
	sr := e.searchers[k]
	t0 := time.Now()
	sr.stack = append(sr.stack[:0], span...)
	sr.drain(^uint64(0), e.cfg.LoadBalance)
	sr.busy += time.Since(t0)
}

// ensureWorkers adds the searchers of slots 1..Threads-1, and has the
// algorithm size whatever it keeps per slot (the kernel counter stripes of
// algobase.Base). Only the goroutine escalating the engine's update calls
// it, before the job starts.
//
//paracosm:allocs one-time growth on the first parallel phase
func (e *Engine) ensureWorkers() {
	n := e.cfg.Threads
	if len(e.searchers) >= n {
		return
	}
	if st, ok := e.algo.(interface{ SetSearchers(n int) }); ok {
		st.SetSearchers(n)
	}
	for len(e.searchers) < n {
		e.searchers = append(e.searchers, newSearcher(e, len(e.searchers)))
	}
}

// emitMatch serializes OnMatch callbacks across workers. Callers check
// OnMatch != nil first: leaves are most of a search tree, and the check
// is cheaper than the call.
func (e *Engine) emitMatch(s *csm.State, count uint64, positive bool) {
	e.matchMu.Lock()
	e.OnMatch(s, count, positive)
	e.matchMu.Unlock()
}
