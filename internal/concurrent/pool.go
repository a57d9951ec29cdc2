package concurrent

import (
	"sync"
	"sync/atomic"
)

// Pool is a persistent pool of parked worker goroutines: the execution
// substrate of the inner-update executor (Algorithm 2). Workers are
// spawned once, at construction, and reused for every escalated update;
// between epochs (and whenever the task queue drains mid-epoch) they park
// on a sync.Cond instead of spinning, so an idle pool costs nothing and
// never steals cycles from the workers that still hold tasks.
//
// One epoch = one Submit or SubmitSpans call: the caller hands over a
// frontier of tasks plus the function that executes them, and the call
// blocks until the epoch drains. Submit runs the function once per task;
// SubmitSpans hands each worker a contiguous span of the queue per trip
// through the pool mutex, for frontiers of many cheap tasks. Task
// functions may grow the epoch by calling PushAll (adaptive re-splitting);
// Starved is the lock-free signal that re-splitting would pay. Epoch
// termination is the classic two-phase check, evaluated under the pool
// mutex so no wakeup can be lost: the epoch is complete exactly when the
// queue is empty AND no worker is executing a task (a running task may
// still push, so an empty queue alone proves nothing).
//
// Submit, SubmitSpans and Close serialize against each other; task
// functions run concurrently and must synchronize any shared state
// themselves. Close joins all workers; a closed pool panics on Submit.
type Pool[T any] struct {
	size int

	mu   sync.Mutex
	work sync.Cond // workers park here; signaled by PushAll/Submit/Close
	done sync.Cond // the submitter parks here; signaled at epoch completion

	tasks  []T  // guarded by mu
	head   int  // guarded by mu
	active int  // guarded by mu
	closed bool // guarded by mu
	// Exactly one of run/runSpan is set during an epoch.
	run     func(worker int, task T)   // guarded by mu
	runSpan func(worker int, span []T) // guarded by mu

	// Lock-free mirrors for the hot-path Starved check. Both are only
	// mutated inside mu's critical sections; concurrent readers may
	// observe values a step stale, never torn — the same contract as
	// Queue.n, and exactly what an advisory re-split heuristic needs.
	qlen atomic.Int64
	idle atomic.Int32

	parks   atomic.Uint64
	wakeups atomic.Uint64

	// epochMu serializes Submit/Close so only one epoch (or shutdown) is
	// in flight; mu alone cannot, because Submit releases it while parked.
	epochMu sync.Mutex
	wg      sync.WaitGroup // joins workers; Add serialized by construction (all Adds happen in NewPool, before the pool escapes)
}

// maxSpan bounds the spans SubmitSpans hands out. At 64 cheap tasks a trip
// through the mutex is already amortized a hundredfold; a longer span only
// grows what its taker holds privately, out of reach of idle workers until
// the taker donates it back.
const maxSpan = 64

// NewPool starts size persistent workers (size < 1 is clamped to 1). The
// workers park immediately; call Close to join them.
func NewPool[T any](size int) *Pool[T] {
	if size < 1 {
		size = 1
	}
	p := &Pool[T]{size: size}
	p.work.L = &p.mu
	p.done.L = &p.mu
	for w := 0; w < size; w++ {
		p.wg.Add(1)
		go p.worker(w)
	}
	return p
}

// Size returns the number of workers.
func (p *Pool[T]) Size() int { return p.size }

// worker is the persistent loop of one pool goroutine. Joined via Close
// (p.wg.Wait after the closed broadcast).
func (p *Pool[T]) worker(w int) {
	defer p.wg.Done()
	p.mu.Lock()
	for {
		for p.head >= len(p.tasks) && !p.closed {
			p.idle.Add(1)
			p.parks.Add(1)
			p.work.Wait()
			p.idle.Add(-1)
			p.wakeups.Add(1)
		}
		if p.head >= len(p.tasks) { // closed, queue drained
			p.mu.Unlock()
			return
		}
		p.active++
		if run := p.run; run != nil {
			var zero T
			task := p.tasks[p.head]
			p.tasks[p.head] = zero // release for GC
			p.head++
			p.qlen.Add(-1)
			p.mu.Unlock()
			run(w, task)
		} else {
			// Guided self-scheduling: a 1/(2·size) share of what is queued,
			// so a long frontier costs few trips through mu and the tail is
			// still handed out finely enough to balance — but never more
			// than maxSpan, so that the taker's private copy stays small
			// and the rest stays where idle workers can reach it.
			n := (len(p.tasks) - p.head + 2*p.size - 1) / (2 * p.size)
			if n > maxSpan {
				n = maxSpan
			}
			span := p.tasks[p.head : p.head+n : p.head+n]
			p.head += n
			p.qlen.Add(-int64(n))
			run := p.runSpan
			p.mu.Unlock()
			run(w, span)
		}
		p.mu.Lock()
		p.active--
		if p.active == 0 && p.head >= len(p.tasks) {
			p.done.Signal()
		}
	}
}

// Submit runs one epoch: frontier is queued, parked workers are woken, and
// the call blocks until the queue is empty and every task function has
// returned. run is invoked once per task with the executing worker's index
// (0..Size-1); it may call PushAll to add tasks to the same epoch. Submit
// must not be called concurrently with itself and panics on a closed pool.
func (p *Pool[T]) Submit(frontier []T, run func(worker int, task T)) {
	p.epoch(frontier, run, nil)
}

// SubmitSpans is Submit for frontiers of many cheap tasks: run receives a
// contiguous span of queued tasks, in queue order, instead of one. The
// span aliases the queue and is valid only until run returns — copy what
// must outlive the call. (The queue is not scrubbed behind spans, so a T
// holding pointers keeps them reachable until a later epoch overwrites
// the slot.)
func (p *Pool[T]) SubmitSpans(frontier []T, run func(worker int, span []T)) {
	p.epoch(frontier, nil, run)
}

func (p *Pool[T]) epoch(frontier []T, run func(int, T), runSpan func(int, []T)) {
	p.epochMu.Lock()
	defer p.epochMu.Unlock()

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		panic("concurrent: Submit on closed Pool")
	}
	p.run, p.runSpan = run, runSpan
	p.tasks = append(p.tasks, frontier...)
	p.qlen.Add(int64(len(frontier)))
	p.work.Broadcast()
	for p.head < len(p.tasks) || p.active > 0 {
		p.done.Wait()
	}
	p.run, p.runSpan = nil, nil
	// Reuse the ring across epochs, but let an explosion's backlog go
	// back to the allocator instead of pinning its high-water mark.
	if cap(p.tasks) > 4096 {
		p.tasks = nil
	} else {
		p.tasks = p.tasks[:0]
	}
	p.head = 0
	p.mu.Unlock()
}

// PushAll appends a batch of tasks to the current epoch under one lock
// acquisition and wakes parked workers once: one for a single task, all
// of them otherwise. Only task functions of the in-flight epoch may call
// it; batch is copied, the caller keeps ownership.
//
//paracosm:noalloc
func (p *Pool[T]) PushAll(batch []T) {
	if len(batch) == 0 {
		return
	}
	p.mu.Lock()
	p.tasks = append(p.tasks, batch...)
	p.qlen.Add(int64(len(batch)))
	if len(batch) == 1 {
		p.work.Signal()
	} else {
		p.work.Broadcast()
	}
	p.mu.Unlock()
}

// Starved reports whether at least one worker is parked while the queue is
// empty — the adaptive re-splitting trigger of Algorithm 2 (idle > 0 &&
// queue empty). Lock-free and advisory: a stale answer only delays or
// wastes one split, never breaks correctness.
//
//paracosm:noalloc
func (p *Pool[T]) Starved() bool {
	return p.idle.Load() > 0 && p.qlen.Load() == 0
}

// Counters returns the cumulative park and wakeup event counts. A park is
// one transition into the idle wait (including the initial park after
// spawn and re-parks after spurious wakeups); wakeups count the matching
// transitions out.
func (p *Pool[T]) Counters() (parks, wakeups uint64) {
	return p.parks.Load(), p.wakeups.Load()
}

// Close wakes all parked workers, waits for them to exit, and marks the
// pool unusable. Idempotent: further Close calls return immediately. Must
// not be called from a task function or concurrently with Submit (it
// serializes behind any in-flight epoch).
func (p *Pool[T]) Close() {
	p.epochMu.Lock()
	defer p.epochMu.Unlock()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.work.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}
