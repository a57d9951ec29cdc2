package core

import (
	"sort"
	"time"

	"paracosm/internal/csm"
	"paracosm/internal/stream"
)

// Execution-driven parallel-schedule simulation.
//
// The speedup experiments of the ParaCOSM paper ran on an 80-core Xeon;
// on machines without that parallelism (the common case for a laptop
// reproduction — and this repository's CI environment has a single core),
// wall-clock speedups are physically unmeasurable. Simulate mode keeps the
// computation exact — every search-tree node is really visited, every
// match really counted — while the *schedule* of Algorithm 2 is simulated
// for N virtual workers from the measured per-node cost:
//
//   - the search tree of each update is profiled into the atomic subtree
//     tasks the inner-update executor would place on its concurrent
//     queue (subtrees rooted at SPLIT_DEPTH);
//   - with load balancing, tasks are assigned longest-first to the
//     least-loaded worker (the greedy schedule dynamic work-sharing
//     converges to); without, tasks are assigned round-robin in
//     generation order at the coarse initial-split granularity,
//     reproducing the paper's "unbalanced" configuration (Figure 10);
//   - the simulated find time is the makespan plus explicit coordination
//     overheads (task queue operations, worker startup).
//
// Per-worker simulated loads feed Stats.ThreadBusy, so Figure 10's CDFs
// come out of the same machinery. On a real multicore, disable Simulate
// and the identical experiments measure wall-clock time instead.

// Simulated coordination overheads, charged per queue task and per worker
// wakeup. Measured once on the development machine; they only matter for
// trees near the escalation threshold.
const (
	simTaskOverhead   = 300 * time.Nanosecond
	simWorkerOverhead = 2 * time.Microsecond
	// simRealCapFactor bounds the real time spent on one update in
	// simulate mode at this multiple of the remaining simulated budget
	// (a 32-worker simulation may legitimately run 32x its simulated
	// time in wall-clock terms; this caps the damage on explosions).
	simRealCapFactor = 8
)

// initialSplitDepth is the BFS layer used as task granularity by the
// non-load-balanced ("unbalanced") configuration: the first expansion
// layer below the seed edge, matching Algorithm 2's initialization phase.
const initialSplitDepth = 3

// simProfile records the task decomposition of one update's search tree.
type simProfile struct {
	totalNodes uint64
	// coarse are subtree sizes (in nodes) at the initial-split layer.
	coarse []uint64
	// fine are subtree sizes at SPLIT_DEPTH (adaptive re-splitting
	// granularity).
	fine []uint64
}

// findMatchesSimulated explores the update's search tree sequentially,
// profiling the task decomposition, and returns the result together with
// the simulated parallel find time.
//
//paracosm:allocs simulation mode profiles the task tree into scratch slices
func (e *Engine) findMatchesSimulated(deadline time.Time, hasDeadline bool, upd stream.Update, positive bool) (innerResult, time.Duration) {
	var res innerResult
	prof := simProfile{}
	threads := e.cfg.Threads

	splitDepth := e.splitDepth
	start := time.Now()
	// simLimit is the simulated time still available for this update:
	// the run budget minus simulated time already spent. Using the
	// simulated clock here matters — real elapsed time in simulate mode
	// exceeds simulated time by up to the thread count, and comparing
	// against wall-clock deadlines would abort runs that are well within
	// their simulated budget.
	var simLimit, realCap time.Duration
	if hasDeadline {
		if e.simBudget > 0 {
			simLimit = e.simBudget - e.totalElapsed()
		} else {
			simLimit = time.Until(deadline)
		}
		if simLimit <= 0 {
			res.timeout = true
			return res, 0
		}
		realCap = simLimit * simRealCapFactor
	}

	var dfs func(s *csm.State) uint64
	dfs = func(s *csm.State) uint64 {
		if res.timeout {
			return 0
		}
		res.nodes++
		prof.totalNodes++
		if res.nodes%4096 == 0 && hasDeadline {
			el := time.Since(start)
			// Simulated elapsed time for this update is at best
			// el/threads; abort when even that optimistic bound exceeds
			// the remaining simulated budget, or when the real-time cap
			// is blown.
			if el/time.Duration(threads) > simLimit || el > realCap {
				res.timeout = true
				return 1
			}
		}
		if c, done := e.algo.Terminal(s); done {
			res.matches += c
			if e.OnMatch != nil {
				e.emitMatch(s, c, positive)
			}
			return 1
		}
		sub := uint64(1)
		e.algo.Expand(s, func(child csm.State) {
			n := dfs(&child)
			sub += n
			if int(child.Depth) == initialSplitDepth {
				prof.coarse = append(prof.coarse, n)
			}
			if int(child.Depth) == splitDepth && splitDepth != initialSplitDepth {
				prof.fine = append(prof.fine, n)
			}
		})
		return sub
	}

	e.algo.Roots(upd, func(root csm.State) {
		if res.timeout {
			return
		}
		n := dfs(&root)
		// Roots are at depth 2; if the split layers coincide with the
		// root layer (tiny queries), treat each root as a task.
		if initialSplitDepth <= 2 {
			prof.coarse = append(prof.coarse, n)
		}
		if splitDepth <= 2 {
			prof.fine = append(prof.fine, n)
		}
	})
	if splitDepth == initialSplitDepth {
		prof.fine = prof.coarse
	}

	elapsed := time.Since(start)
	simFind := e.simulateSchedule(&prof, elapsed)
	return res, simFind
}

// simulateSchedule converts the profiled decomposition into a simulated
// parallel find time, and accumulates per-worker loads into ThreadBusy.
func (e *Engine) simulateSchedule(prof *simProfile, measured time.Duration) time.Duration {
	threads := e.cfg.Threads
	if prof.totalNodes == 0 {
		return 0
	}
	perNode := float64(measured) / float64(prof.totalNodes)
	// Below the escalation threshold the executor never goes parallel:
	// simulated time is the measured sequential time, attributed to the
	// caller slot (ThreadBusy[0]) like real sequential phases.
	if prof.totalNodes <= uint64(e.cfg.EscalateNodes) || threads <= 1 {
		e.statsMu.Lock()
		if len(e.stats.ThreadBusy) == 0 {
			e.stats.ThreadBusy = append(e.stats.ThreadBusy, 0)
		}
		e.stats.ThreadBusy[0] += measured
		e.statsMu.Unlock()
		return measured
	}

	var coarseTotal, fineTotal uint64
	for _, t := range prof.coarse {
		coarseTotal += t
	}
	for _, t := range prof.fine {
		fineTotal += t
	}
	// Nodes above the coarse layer are explored by the main thread during
	// initialization; everything below it is parallel work.
	pre := prof.totalNodes - coarseTotal

	tasks := prof.fine
	var loads []uint64
	var makespan uint64
	if e.cfg.LoadBalance {
		// Balanced: adaptive re-splitting shares work down to SPLIT_DEPTH
		// granularity; LPT over the fine tasks models the resulting
		// schedule. Nodes between the coarse and fine layers are abundant
		// small work that spreads evenly.
		makespan, loads = lptMakespan(tasks, threads)
		inBetween := coarseTotal - fineTotal
		per := inBetween / uint64(threads)
		for w := range loads {
			loads[w] += per
		}
		makespan = maxLoad(loads)
	} else {
		// Unbalanced: coarse tasks assigned statically, no re-splitting.
		tasks = prof.coarse
		makespan, loads = staticMakespan(prof.coarse, threads)
	}

	overhead := time.Duration(len(tasks))*simTaskOverhead/time.Duration(threads) +
		time.Duration(threads)*simWorkerOverhead
	sim := time.Duration(float64(pre+makespan)*perNode) + overhead

	e.statsMu.Lock()
	for len(e.stats.ThreadBusy) < threads+1 {
		e.stats.ThreadBusy = append(e.stats.ThreadBusy, 0)
	}
	// Slot 0 is the caller thread (initialization above the coarse split
	// layer); slots 1..threads are the simulated workers — the same
	// convention the real executor uses (see Stats.ThreadBusy).
	e.stats.ThreadBusy[0] += time.Duration(float64(pre) * perNode)
	for w, l := range loads {
		e.stats.ThreadBusy[w+1] += time.Duration(float64(l) * perNode)
	}
	e.stats.Escalations++
	e.statsMu.Unlock()
	return sim
}

// lptMakespan schedules tasks longest-first onto the least-loaded of n
// workers (the greedy approximation dynamic work-sharing converges to) and
// returns the makespan and per-worker loads.
func lptMakespan(tasks []uint64, n int) (uint64, []uint64) {
	loads := make([]uint64, n)
	if len(tasks) == 0 {
		return 0, loads
	}
	sorted := append([]uint64(nil), tasks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	for _, t := range sorted {
		min := 0
		for w := 1; w < n; w++ {
			if loads[w] < loads[min] {
				min = w
			}
		}
		loads[min] += t
	}
	return maxLoad(loads), loads
}

// staticMakespan assigns tasks round-robin in generation order — no
// rebalancing, the "unbalanced" baseline of Figure 10.
func staticMakespan(tasks []uint64, n int) (uint64, []uint64) {
	loads := make([]uint64, n)
	for i, t := range tasks {
		loads[i%n] += t
	}
	return maxLoad(loads), loads
}

func maxLoad(loads []uint64) uint64 {
	var m uint64
	for _, l := range loads {
		if l > m {
			m = l
		}
	}
	return m
}
