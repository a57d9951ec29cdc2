package core

import (
	"sort"
	"time"

	"paracosm/internal/stream"
)

// Execution-driven parallel-schedule simulation.
//
// The speedup experiments of the ParaCOSM paper ran on an 80-core Xeon;
// on machines without that parallelism (the common case for a laptop
// reproduction), wall-clock speedups are physically unmeasurable. Simulate
// mode keeps the computation exact — the search runs for real, through the
// same drain loop, escalation rule and counted last level as the real
// inner-update executor, so nodes and matches are identical — while the
// *schedule* of its parallel phase is simulated for N virtual workers:
//
//   - an update runs sequentially on the caller's searcher until it has
//     drained its tree or spent EscalateNodes nodes, exactly as the real
//     executor does; an update that escalates has that measured prefix
//     charged to the caller slot;
//   - the escalated frontier is then drained on the same searcher in
//     budgeted slices, and each slice's measured time is one task. With
//     load balancing a slice is simSlice nodes, extended until the next
//     node is at most SPLIT_DEPTH deep — the real pool shares no deeper
//     node — and the tasks are placed longest-first on the least-loaded
//     worker (the greedy schedule dynamic work-sharing converges to).
//     Without, a task is one frontier node's whole subtree, dealt
//     round-robin in queue order: the paper's "unbalanced" configuration
//     (Figure 10);
//   - the simulated find time is the prefix plus the makespan plus the
//     pool's coordination cost (simTrip): the caller searches alongside
//     the Threads-1 workers it wakes, as the real pool's submitter does.
//
// Per-worker simulated loads feed Stats.ThreadBusy, so Figure 10's CDFs
// come out of the same machinery. On a real multicore, disable Simulate
// and the identical experiments measure wall-clock time instead.

const (
	// simTrip is one worker's trip through the pool: woken for an epoch,
	// or handed one task. It is the benchmark's measured
	// concurrent.pool_epoch_ns — one empty epoch, hand-over, wakeup and
	// join — divided by its worker count: 464 ns over 2 workers on the
	// 2-core reference box (EXPERIMENTS.md). An escalation wakes the
	// Threads-1 workers that help its submitter, one trip each; each task
	// costs one more, spread over the Threads searchers.
	simTrip = 232 * time.Nanosecond
	// simSlice is the node budget of one balanced-schedule slice. The real
	// pool can hand over a single node, so slices must be short next to a
	// tree: 64 nodes of a counted last level measured at most ~25 µs on
	// the dense trees of TestSimulatedMakespanOnHeavyTree, where 1 024-node
	// slices ran to 0.8 ms and one slice set the makespan.
	simSlice = 64
	// simRealCapFactor bounds the real time spent on one update in
	// simulate mode at this multiple of the remaining simulated budget
	// (a 32-worker simulation may legitimately run 32x its simulated
	// time in wall-clock terms; this caps the damage on explosions).
	simRealCapFactor = 8
)

// findMatchesSimulated runs the update's find phase through drain on the
// caller's searcher, profiling an escalated tree into tasks, and returns
// the result together with the simulated parallel find time.
//
//paracosm:allocs simulation mode schedules the profiled tasks through sorted copies
func (e *Engine) findMatchesSimulated(deadline time.Time, hasDeadline bool, upd stream.Update, positive bool) (innerResult, time.Duration) {
	var res innerResult
	threads := e.cfg.Threads
	start := time.Now()
	// simLimit is the simulated time still available for this update: the
	// run budget minus simulated time already spent. Real elapsed time in
	// simulate mode exceeds simulated time by up to the thread count, so
	// the searcher's deadline sits at that multiple (capped) of simLimit,
	// where even a perfect schedule would overrun the budget.
	if hasDeadline {
		var simLimit time.Duration
		if e.simBudget > 0 {
			simLimit = e.simBudget - e.totalElapsed()
		} else {
			simLimit = time.Until(deadline)
		}
		if simLimit <= 0 {
			res.timeout = true
			return res, 0
		}
		deadline = start.Add(simLimit * time.Duration(min(threads, simRealCapFactor)))
	}
	e.beginPhase(deadline, hasDeadline, positive)
	sr := e.searchers[0]
	sr.reset()
	e.algo.Roots(upd, sr.push)
	stop := sr.drain(uint64(e.cfg.EscalateNodes), false)
	pre := time.Since(start)
	if stop != stopBudget {
		// Never escalated: the measured sequential time is the simulated
		// time, attributed to the caller slot like real sequential phases.
		res.matches, res.nodes, res.timeout = sr.matches, sr.nodes, stop == stopAborted
		e.addThreadBusy(pre, nil)
		return res, pre
	}

	tasks := e.simTasks[:0]
	if e.cfg.LoadBalance {
		for stop == stopBudget {
			t0 := time.Now()
			stop = sr.drain(sr.nodes+simSlice, false)
			for stop == stopBudget && int(sr.stack[len(sr.stack)-1].Depth) > e.splitDepth {
				stop = sr.drain(sr.nodes+1, false) // finish the unshareable subtree
			}
			tasks = append(tasks, uint64(time.Since(t0)))
		}
	} else {
		frontier := append(e.simFrontier[:0], sr.stack...)
		e.simFrontier = frontier
		for _, f := range frontier {
			t0 := time.Now()
			sr.stack = append(sr.stack[:0], f)
			if stop = sr.drain(^uint64(0), false); stop == stopAborted {
				break
			}
			tasks = append(tasks, uint64(time.Since(t0)))
		}
	}
	e.simTasks = tasks
	res.matches, res.nodes, res.timeout = sr.matches, sr.nodes, stop == stopAborted
	res.escalated = true

	var makespan uint64
	var loads []uint64
	if e.cfg.LoadBalance {
		makespan, loads = lptMakespan(tasks, threads)
	} else {
		makespan, loads = staticMakespan(tasks, threads)
	}
	overhead := time.Duration(threads-1)*simTrip + time.Duration(len(tasks))*simTrip/time.Duration(threads)
	e.addThreadBusy(pre, loads)
	return res, pre + time.Duration(makespan) + overhead
}

// addThreadBusy books a simulated update into ThreadBusy: pre on the caller
// slot, and loads[w] (nanoseconds) on virtual worker w's slot 1+w. Loads
// mean the update escalated.
func (e *Engine) addThreadBusy(pre time.Duration, loads []uint64) {
	e.statsMu.Lock()
	for len(e.stats.ThreadBusy) < 1+len(loads) {
		e.stats.ThreadBusy = append(e.stats.ThreadBusy, 0)
	}
	e.stats.ThreadBusy[0] += pre
	for w, l := range loads {
		e.stats.ThreadBusy[w+1] += time.Duration(l)
	}
	if loads != nil {
		e.stats.Escalations++
	}
	e.statsMu.Unlock()
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
