package concurrent

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// each adapts a per-task function to Job.Run's spans.
func each(run func(seat, task int)) func(int, []int) {
	return func(seat int, span []int) {
		for _, v := range span {
			run(seat, v)
		}
	}
}

func TestPoolRunsEveryTask(t *testing.T) {
	p := NewPool[int](4)
	defer p.Close()

	var sum atomic.Int64
	tasks := make([]int, 100)
	want := int64(0)
	for i := range tasks {
		tasks[i] = i
		want += int64(i)
	}
	p.Submit(tasks, func(w int, v int) { sum.Add(int64(v)) })
	if got := sum.Load(); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

func TestPoolEpochsAreIndependent(t *testing.T) {
	p := NewPool[int](3)
	defer p.Close()

	for epoch := 0; epoch < 50; epoch++ {
		var n atomic.Int64
		p.Submit([]int{1, 2, 3, 4, 5}, func(w, v int) { n.Add(1) })
		if n.Load() != 5 {
			t.Fatalf("epoch %d: ran %d tasks, want 5", epoch, n.Load())
		}
	}
}

// TestPoolRecursivePush: tasks growing the job via PushAll must all run
// before Run returns (the join count: an empty queue with a task in flight
// is not completion).
func TestPoolRecursivePush(t *testing.T) {
	p := NewPool[int](4)
	defer p.Close()

	var n atomic.Int64
	var j Job[int]
	// Each task at depth d > 0 pushes two tasks at depth d-1:
	// 2^5-1 = 31 tasks from one seed.
	j.Run(p, p.Size(), 1, []int{4}, each(func(w, depth int) {
		n.Add(1)
		if depth > 0 {
			j.PushAll([]int{depth - 1, depth - 1})
		}
	}))
	if got := n.Load(); got != 31 {
		t.Fatalf("ran %d tasks, want 31", got)
	}
}

// TestPoolWorkersParkBetweenEpochs: the pool must not grow goroutines
// across many epochs. (That idle workers park, with exact counts, is
// TestPoolParkCountsBubbled's verdict: how often they do here is up to the
// scheduler.)
func TestPoolWorkersParkBetweenEpochs(t *testing.T) {
	p := NewPool[int](4)
	defer p.Close()
	p.Submit([]int{1}, func(w, v int) {}) // warm up: workers spawned and parked

	base := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		p.Submit([]int{1, 2, 3}, func(w, v int) {})
	}
	if now := runtime.NumGoroutine(); now > base+2 {
		t.Fatalf("goroutines grew across epochs: %d -> %d", base, now)
	}
}

// TestPoolStarved: during a job where one task blocks and the other
// goroutine drains the queue, Starved must eventually flip true — the
// sibling idles (the submitter waiting, or the worker parked) and the
// queue is empty — whichever goroutine holds the blocking task.
func TestPoolStarved(t *testing.T) {
	p := NewPool[int](2)
	defer p.Close()

	var j Job[int]
	sawStarved := false
	j.Run(p, 2, 1, []int{0, 1}, each(func(w, v int) {
		if v == 0 {
			d := time.Now().Add(2 * time.Second)
			for !j.Starved() && time.Now().Before(d) {
				time.Sleep(100 * time.Microsecond)
			}
			sawStarved = j.Starved()
		}
	}))
	if !sawStarved {
		t.Fatal("running task never observed a starved sibling")
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool[int](3)
	p.Submit([]int{1, 2}, func(w, v int) {})
	p.Close()
	p.Close() // second Close must be a no-op, not a deadlock or panic
}

func TestPoolSubmitAfterClosePanics(t *testing.T) {
	p := NewPool[int](2)
	p.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Submit on closed pool did not panic")
		}
	}()
	p.Submit([]int{1}, func(w, v int) {})
}

func TestPoolSizeClamped(t *testing.T) {
	p := NewPool[int](0)
	defer p.Close()
	if p.Size() != 1 {
		t.Fatalf("Size() = %d, want 1", p.Size())
	}
	p.Submit([]int{7}, func(w, v int) {
		if w != 0 {
			t.Errorf("worker index %d on size-1 pool", w)
		}
	})
}

// TestPoolStress exercises concurrent PushAll from many tasks under -race.
func TestPoolStress(t *testing.T) {
	p := NewPool[int](8)
	defer p.Close()
	var n atomic.Int64
	var j Job[int]
	for round := 0; round < 20; round++ {
		n.Store(0)
		seeds := make([]int, 16)
		for i := range seeds {
			seeds[i] = 6
		}
		j.Run(p, p.Size(), 1, seeds, each(func(w, depth int) {
			n.Add(1)
			if depth > 0 {
				j.PushAll([]int{depth - 1})
				j.PushAll([]int{depth - 1})
			}
		}))
		// 16 seeds, each a full binary tree of depth 6: 16*(2^7-1).
		if got := n.Load(); got != 16*127 {
			t.Fatalf("round %d: ran %d tasks, want %d", round, got, 16*127)
		}
	}
}

// TestPoolSpansCoverFrontier: Run hands out every task exactly once,
// in contiguous queue-order spans, whatever the pool size.
func TestPoolSpansCoverFrontier(t *testing.T) {
	for _, size := range []int{1, 2, 3, 8} {
		p := NewPool[int](size)
		frontier := make([]int, 1000)
		for i := range frontier {
			frontier[i] = i
		}
		seen := make([]atomic.Int32, len(frontier))
		var spans atomic.Int64
		var j Job[int]
		j.Run(p, size, 64, frontier, func(w int, span []int) {
			spans.Add(1)
			for i, v := range span {
				if v != span[0]+i {
					t.Errorf("size %d: span not contiguous: %v", size, span)
				}
				seen[v].Add(1)
			}
		})
		p.Close()
		for v := range seen {
			if n := seen[v].Load(); n != 1 {
				t.Fatalf("size %d: task %d ran %d times", size, v, n)
			}
		}
		if n := spans.Load(); n >= int64(len(frontier)) {
			t.Fatalf("size %d: %d spans for %d tasks: no batching", size, n, len(frontier))
		}
	}
}

// TestPoolPushAllByLastActiveWorker: the job must not end while a batch
// pushed by the only running task is still queued — the pusher's span is
// over with the queue non-empty, its siblings are idle, and the join count
// (tasks queued or running) is all that keeps Run going.
func TestPoolPushAllByLastActiveWorker(t *testing.T) {
	for _, size := range []int{1, 2, 4} {
		p := NewPool[int](size)
		var j Job[int]
		for round := 0; round < 200; round++ {
			var ran atomic.Int64
			j.Run(p, size, 64, []int{3}, func(w int, span []int) {
				for _, depth := range span {
					ran.Add(1)
					if depth > 0 {
						// Every level is pushed by whichever task runs last.
						j.PushAll([]int{depth - 1, depth - 1, depth - 1})
					}
				}
			})
			// 1 + 3 + 9 + 27 tasks.
			if got := ran.Load(); got != 40 {
				t.Fatalf("size %d round %d: ran %d tasks, want 40", size, round, got)
			}
		}
		p.Close()
	}
}

// TestPoolPushAllEmptyAndSingle: an empty batch is a no-op and a single
// task still reaches a worker.
func TestPoolPushAllEmptyAndSingle(t *testing.T) {
	p := NewPool[int](2)
	defer p.Close()
	var ran atomic.Int64
	var j Job[int]
	j.Run(p, 2, 1, []int{1}, each(func(w, v int) {
		ran.Add(1)
		j.PushAll(nil)
		if v == 1 {
			j.PushAll([]int{0})
		}
	}))
	if got := ran.Load(); got != 2 {
		t.Fatalf("ran %d tasks, want 2", got)
	}
}

// TestPoolSubmitFromTask: a task may submit a job of its own, and many
// tasks may do so at once: each nested job is drained by the task that
// submitted it, with or without help, so none waits for a free worker.
func TestPoolSubmitFromTask(t *testing.T) {
	for _, size := range []int{1, 2, 4} {
		p := NewPool[int](size)
		var n atomic.Int64
		outer := make([]int, 16)
		p.Submit(outer, func(int, int) {
			p.Submit([]int{1, 2, 3, 4, 5}, func(_, v int) { n.Add(int64(v)) })
		})
		p.Close()
		if got := n.Load(); got != 16*15 {
			t.Fatalf("size %d: nested jobs summed %d, want %d", size, got, 16*15)
		}
	}
}

// TestJobStaleSeatsStayOut: a seat a job offered but nobody took before
// its run ended stays queued; when a worker reaches it, the job is
// already in a later run and must not be joined through it — or the later
// run would hold more goroutines than its width, on seats it never
// offered. Every worker is held busy while a job runs back to back, so
// each run's seat goes stale; then the workers are freed into the queue of
// stale seats during a last, long run.
func TestJobStaleSeatsStayOut(t *testing.T) {
	const size, width = 4, 2
	p := NewPool[int](size)
	defer p.Close()

	held, release := make(chan struct{}, size), make(chan struct{})
	busy := make(chan struct{})
	go func() {
		defer close(busy)
		p.Submit(make([]int, size), func(int, int) {
			held <- struct{}{}
			<-release
		})
	}()
	for i := 0; i < size; i++ {
		<-held // each of the size goroutines holds one task
	}

	var j Job[int]
	var in, most atomic.Int32
	var bad atomic.Int64
	check := func(seat, _ int) {
		if seat < 0 || seat >= width {
			bad.Add(1)
		}
		k := in.Add(1)
		for m := most.Load(); k > m && !most.CompareAndSwap(m, k); m = most.Load() {
		}
		time.Sleep(20 * time.Microsecond)
		in.Add(-1)
	}
	for r := 0; r < 20; r++ {
		j.Run(p, width, 1, []int{0, 1}, each(check))
	}
	close(release)
	j.Run(p, width, 1, make([]int, 400), each(check))
	<-busy
	if bad.Load() != 0 || most.Load() > width {
		t.Fatalf("a job of width %d ran on %d goroutines at once, %d tasks on a seat outside it", width, most.Load(), bad.Load())
	}
}
