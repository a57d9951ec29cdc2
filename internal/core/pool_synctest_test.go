//go:build goexperiment.synctest

package core

import (
	"testing"
	"testing/synctest"
)

// TestStarvationResplitBubbled holds the verdicts TestStarvationResplit
// leaves to the scheduler. In a bubble, time moves only when every
// goroutine is blocked, so whoever holds the chain wakes from each slow
// expansion to find its sibling idle — the submitter waiting on the job,
// or the worker parked — and the queue empty: it must donate, and the
// donation must wake someone.
func TestStarvationResplitBubbled(t *testing.T) {
	synctest.Run(func() {
		seqStats, seqMatches := starvationRun(t, 1)
		parStats, parMatches := starvationRun(t, 2)
		if parMatches != seqMatches || parStats.Nodes != seqStats.Nodes {
			t.Errorf("pooled run (+%d, %d nodes) != sequential (+%d, %d nodes)",
				parMatches, parStats.Nodes, seqMatches, seqStats.Nodes)
		}
		if parStats.Resplits == 0 {
			t.Error("skewed 2-searcher run triggered no adaptive re-split")
		}
		if parStats.Parks == 0 || parStats.Wakeups == 0 {
			t.Errorf("no park/wakeup traffic (parks=%d wakeups=%d)", parStats.Parks, parStats.Wakeups)
		}
	})
}
