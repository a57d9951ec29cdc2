package concurrent

import (
	"sync"
	"sync/atomic"
)

// Pool is a persistent set of parked worker goroutines running jobs: one
// driver's fan-out over its queries and every escalated search under it
// (Algorithm 2) share it. A pool of size n has n-1 workers, spawned at
// construction and parked on a sync.Cond while no job has work for them:
// a job's submitter is its n-th goroutine.
//
// A Job is drained help first: its submitter works through it alongside
// the workers it admits, and returns when the job's join count (tasks
// queued or running) reaches zero. A job offers each free seat of its
// width to the workers as one queue entry; a worker taking one runs the
// job's queued tasks and leaves when none is left. Nobody runs another
// job's tasks while serving one, so a task may submit a job of its own and
// drain it, and no job's progress depends on a free worker.
type Pool[T any] struct{ crew }

// crew is the part of a Pool that is independent of its task type.
type crew struct {
	size int

	mu   sync.Mutex
	work sync.Cond // idle workers park here

	queue  []entry // guarded by mu: offered seats, oldest first
	head   int     // guarded by mu
	closed bool    // guarded by mu

	idle           atomic.Int32 // parked workers, for Job.Starved
	parks, wakeups atomic.Uint64

	wg sync.WaitGroup // joins workers; Add serialized by construction (all Adds happen in NewPool, before the pool escapes)
}

// entry is one seat a job offers, stamped with the job's run: a seat still
// queued when its run ends is stale in every later run of the job.
type entry struct {
	j   interface{ helpLocked(gen uint64) }
	gen uint64
}

// Workers is a Pool of any task type, as a Job sees it.
type Workers interface{ shared() *crew }

func (p *Pool[T]) shared() *crew { return &p.crew }

// NewPool starts a pool of size goroutines, size-1 of them workers (size <
// 1 is clamped to 1); Close joins them.
func NewPool[T any](size int) *Pool[T] {
	p := &Pool[T]{}
	p.size = max(size, 1)
	p.work.L = &p.mu
	for w := 1; w < p.size; w++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// worker is the loop of one pool goroutine: take the oldest offered seat,
// help its job, repeat; park while none is offered. Joined via Close.
func (c *crew) worker() {
	defer c.wg.Done()
	c.mu.Lock()
	for {
		for c.head >= len(c.queue) && !c.closed {
			c.idle.Add(1)
			c.parks.Add(1)
			c.work.Wait()
			c.idle.Add(-1)
			c.wakeups.Add(1)
		}
		if c.head >= len(c.queue) { // closed, queue drained
			c.mu.Unlock()
			return
		}
		e := c.queue[c.head]
		c.queue[c.head] = entry{}
		c.head++
		e.j.helpLocked(e.gen)
	}
}

// Submit runs a job over frontier at the pool's full width, one task per
// call of run. A task may call it; it panics on a closed pool.
func (p *Pool[T]) Submit(frontier []T, run func(seat int, task T)) {
	new(Job[T]).Run(p, p.size, 1, frontier, func(seat int, span []T) { run(seat, span[0]) })
}

// Close marks the pool unusable, wakes all parked workers and waits for
// them to exit. Idempotent. Must not be called while a job runs.
func (c *crew) Close() {
	c.mu.Lock()
	c.closed = true
	c.work.Broadcast()
	c.mu.Unlock()
	c.wg.Wait()
}

// Job is one run at a time of a frontier on a Pool, reusable across runs
// on that pool, or on another once it is closed; the zero value is ready.
// Its fields are under the pool's mutex, except the atomics Starved reads.
type Job[T any] struct {
	c   *crew
	gen uint64 // bumped when a run starts and when it ends

	width, grain     int
	members, offered int   // goroutines serving the run, its caller included; its seats still queued
	seats            []int // free helper seats
	tasks            []T
	head, pending    int // pending is the join count: tasks queued or running
	run              func(int, []T)
	parks, wakeups   uint64
	done             sync.Cond // the caller waits here for its helpers

	waiting atomic.Bool  // the caller is in done.Wait
	qlen    atomic.Int64 // tasks queued
}

// Run runs the job over frontier on ws with at most width goroutines at
// once, the caller included. run gets its goroutine's seat (0 for the
// caller) and a span of queued tasks — a 1/(2·width) share, at most grain,
// valid until run returns — and may call PushAll. Run returns when every
// task has run, with the run's parks — one of its goroutines finding
// nothing queued while tasks ran: the caller waiting, a helper leaving —
// and the wakeups that pair them. It panics on a closed pool.
func (j *Job[T]) Run(ws Workers, width, grain int, frontier []T, run func(seat int, span []T)) (parks, wakeups uint64) {
	// No run is in flight, and a worker holding a stale seat reads only
	// gen, under the mutex: j.c may be set before it is taken.
	j.c = ws.shared()
	j.c.mu.Lock()
	defer j.c.mu.Unlock()
	if j.c.closed {
		panic("concurrent: Run on closed Pool")
	}
	j.done.L = &j.c.mu
	j.gen++
	j.width, j.grain, j.run = max(1, min(width, j.c.size)), grain, run
	j.members, j.offered, j.parks, j.wakeups = 1, 0, 0, 0
	j.seats = j.seats[:0]
	for s := j.width - 1; s > 0; s-- {
		j.seats = append(j.seats, s)
	}
	j.tasks, j.head, j.pending = append(j.tasks[:0], frontier...), 0, len(frontier)
	j.qlen.Store(int64(len(frontier)))
	j.offerLocked(len(frontier) - 1) // the caller takes the first share
	for j.serveLocked(0); j.pending > 0; j.serveLocked(0) {
		j.waiting.Store(true)
		j.parks++
		j.done.Wait()
		j.waiting.Store(false)
		j.wakeups++
	}
	// A helper leaves in the critical section that finds the queue empty,
	// so none is inside; the new gen disowns the seats still queued.
	j.gen++
	j.run = nil
	if cap(j.tasks) > 4096 { // let an explosion's backlog go
		j.tasks = nil
	}
	return j.parks, j.wakeups
}

// helpLocked is a worker taking a seat of the job: stale once the run that
// offered it is over, idle if the run has nothing queued any more.
//
//paracosm:noalloc
func (j *Job[T]) helpLocked(gen uint64) {
	if gen != j.gen {
		return
	}
	j.offered--
	if j.head < len(j.tasks) {
		seat := j.seats[len(j.seats)-1]
		j.seats = j.seats[:len(j.seats)-1]
		j.members++
		j.wakeups++
		j.serveLocked(seat)
		j.members--
		j.seats = append(j.seats, seat)
		j.parks++
	}
}

// serveLocked runs the job's queued tasks on seat until none is queued,
// releasing the pool's mutex while a span runs; the span that brings the
// join count to zero wakes the waiting caller.
//
//paracosm:noalloc
func (j *Job[T]) serveLocked(seat int) {
	c := j.c
	for j.head < len(j.tasks) {
		n := min(j.grain, (len(j.tasks)-j.head+2*j.width-1)/(2*j.width))
		span := j.tasks[j.head : j.head+n : j.head+n]
		j.head += n
		j.qlen.Add(-int64(n))
		run := j.run
		c.mu.Unlock()
		run(seat, span)
		c.mu.Lock()
		if j.pending -= n; j.pending == 0 && j.waiting.Load() {
			j.done.Signal()
		}
	}
}

// offerLocked queues up to n of the job's free seats in the pool, waking a
// parked worker for each; a full queue drops its taken head before growing.
//
//paracosm:noalloc
func (j *Job[T]) offerLocked(n int) {
	for n = min(n, j.width-j.members-j.offered); n > 0; n-- {
		if len(j.c.queue) == cap(j.c.queue) && j.c.head > 0 {
			j.c.queue, j.c.head = j.c.queue[:copy(j.c.queue, j.c.queue[j.c.head:])], 0
		}
		j.c.queue = append(j.c.queue, entry{j, j.gen})
		j.offered++
		j.c.work.Signal()
	}
}

// PushAll appends a copy of batch to the run in flight, wakes its caller
// if it waits, and offers the rest to free seats. Only the run's own
// tasks may call it.
//
//paracosm:noalloc
func (j *Job[T]) PushAll(batch []T) {
	if len(batch) == 0 {
		return
	}
	j.c.mu.Lock()
	j.tasks = append(j.tasks, batch...)
	j.pending += len(batch)
	j.qlen.Add(int64(len(batch)))
	n := len(batch)
	if j.waiting.Load() {
		j.done.Signal()
		n--
	}
	j.offerLocked(n)
	j.c.mu.Unlock()
}

// Starved reports whether the run's queue is empty while its caller waits
// or a worker is parked: Algorithm 2's re-splitting trigger. Lock-free and
// advisory: a stale answer only mis-times a split.
//
//paracosm:noalloc
func (j *Job[T]) Starved() bool {
	return j.qlen.Load() == 0 && (j.waiting.Load() || j.c.idle.Load() > 0)
}
