//go:build goexperiment.synctest

package concurrent

import (
	"testing"
	"testing/synctest"
)

// TestPoolParkCountsBubbled holds the park verdicts that depend on the
// scheduler outside a bubble: once synctest.Wait returns, every worker is
// parked, so the counts are exact — one park per worker at spawn, and one
// more for each wakeup jobs caused.
func TestPoolParkCountsBubbled(t *testing.T) {
	synctest.Run(func() {
		const size = 4
		p := NewPool[int](size)
		defer p.Close()
		synctest.Wait()
		if parks, wakeups := p.Counters(); parks != size-1 || wakeups != 0 {
			t.Errorf("fresh pool: parks=%d wakeups=%d, want %d and 0", parks, wakeups, size-1)
		}
		for i := 0; i < 100; i++ {
			p.Submit([]int{1, 2, 3}, func(int, int) {})
		}
		synctest.Wait()
		parks, wakeups := p.Counters()
		if wakeups == 0 || parks != wakeups+size-1 {
			t.Errorf("after 100 jobs: parks=%d wakeups=%d, want wakeups > 0 and every worker parked again", parks, wakeups)
		}
	})
}
