package concurrent

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

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

// TestPoolRecursivePush: tasks growing the epoch via PushAll must all run
// before Submit returns (the two-phase termination check: an empty queue
// with a task in flight is not completion).
func TestPoolRecursivePush(t *testing.T) {
	p := NewPool[int](4)
	defer p.Close()

	var n atomic.Int64
	// Each task at depth d > 0 pushes two tasks at depth d-1:
	// 2^5-1 = 31 tasks from one seed.
	p.Submit([]int{4}, func(w, depth int) {
		n.Add(1)
		if depth > 0 {
			p.PushAll([]int{depth - 1, depth - 1})
		}
	})
	if got := n.Load(); got != 31 {
		t.Fatalf("ran %d tasks, want 31", got)
	}
}

// TestPoolWorkersParkBetweenEpochs: the pool must not grow goroutines
// across many epochs, and idle workers must actually park (counters move).
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
	parks, wakeups := p.Counters()
	if parks == 0 || wakeups == 0 {
		t.Fatalf("no park/wakeup traffic recorded (parks=%d wakeups=%d)", parks, wakeups)
	}
}

func TestPoolStarved(t *testing.T) {
	p := NewPool[int](2)
	defer p.Close()

	// Quiescent pool: both workers parked, queue empty.
	deadline := time.Now().Add(2 * time.Second)
	for !p.Starved() {
		if time.Now().After(deadline) {
			t.Fatal("pool never reported starved while quiescent")
		}
		time.Sleep(time.Millisecond)
	}

	// During an epoch where one worker blocks and the other drains the
	// queue, Starved must eventually flip true (idle sibling, empty queue).
	release := make(chan struct{})
	sawStarved := make(chan bool, 1)
	go func() {
		p.Submit([]int{0, 1}, func(w, v int) {
			if v == 0 {
				d := time.Now().Add(2 * time.Second)
				for !p.Starved() && time.Now().Before(d) {
					time.Sleep(100 * time.Microsecond)
				}
				sawStarved <- p.Starved()
			}
		})
		close(release)
	}()
	if !<-sawStarved {
		t.Fatal("running task never observed a starved sibling")
	}
	<-release
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
	for round := 0; round < 20; round++ {
		n.Store(0)
		seeds := make([]int, 16)
		for i := range seeds {
			seeds[i] = 6
		}
		p.Submit(seeds, func(w, depth int) {
			n.Add(1)
			if depth > 0 {
				p.PushAll([]int{depth - 1})
				p.PushAll([]int{depth - 1})
			}
		})
		// 16 seeds, each a full binary tree of depth 6: 16*(2^7-1).
		if got := n.Load(); got != 16*127 {
			t.Fatalf("round %d: ran %d tasks, want %d", round, got, 16*127)
		}
	}
}

// TestPoolSpansCoverFrontier: SubmitSpans hands out every task exactly
// once, in contiguous queue-order spans, whatever the pool size.
func TestPoolSpansCoverFrontier(t *testing.T) {
	for _, size := range []int{1, 2, 3, 8} {
		p := NewPool[int](size)
		frontier := make([]int, 1000)
		for i := range frontier {
			frontier[i] = i
		}
		seen := make([]atomic.Int32, len(frontier))
		var spans atomic.Int64
		p.SubmitSpans(frontier, func(w int, span []int) {
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

// TestPoolPushAllByLastActiveWorker: the epoch must not end while a batch
// pushed by the only running task is still queued — the pusher has gone
// idle with the queue non-empty, its siblings are parked, and the two-phase
// check (queue empty AND nobody active) is all that keeps Submit waiting.
func TestPoolPushAllByLastActiveWorker(t *testing.T) {
	for _, size := range []int{1, 2, 4} {
		p := NewPool[int](size)
		for round := 0; round < 200; round++ {
			var ran atomic.Int64
			p.SubmitSpans([]int{3}, func(w int, span []int) {
				for _, depth := range span {
					ran.Add(1)
					if depth > 0 {
						// Every level is pushed by whichever task runs last.
						p.PushAll([]int{depth - 1, depth - 1, depth - 1})
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
	p.Submit([]int{1}, func(w, v int) {
		ran.Add(1)
		p.PushAll(nil)
		if v == 1 {
			p.PushAll([]int{0})
		}
	})
	if got := ran.Load(); got != 2 {
		t.Fatalf("ran %d tasks, want 2", got)
	}
}
