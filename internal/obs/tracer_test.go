package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTracerUpdateAggregates(t *testing.T) {
	tr := NewTracer(16)
	tr.Update(Event{Op: "+e", Class: ClassUnsafe, Escalated: true, Nodes: 100, Matches: 5,
		ADS: time.Microsecond, Find: time.Millisecond, Total: 2 * time.Millisecond})
	tr.Update(Event{Op: "-e", Class: ClassSafeLabel, Nodes: 0, Total: 3 * time.Microsecond})
	tr.Update(Event{Op: "+v", Class: ClassVertex, Total: time.Microsecond})
	tr.Update(Event{Op: "+e", Class: ClassDirect, Timeout: true, Nodes: 50, Total: time.Millisecond})

	c := tr.Counters()
	if c.Updates != 4 || c.Safe != 2 || c.Unsafe != 1 || c.Escalations != 1 ||
		c.Timeouts != 1 || c.Matches != 5 || c.Nodes != 150 {
		t.Fatalf("counters = %+v", c)
	}
	if got := tr.Hist(PhaseTotal).Count(); got != 4 {
		t.Fatalf("total histogram count = %d, want 4", got)
	}
	// Events with Seq 0 get tracer-assigned, strictly increasing seqs.
	evs := tr.Ring().Snapshot()
	if len(evs) != 4 {
		t.Fatalf("ring has %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
	}
}

// TestTracerSafeN: bulk-recorded label-safe updates move the counters and
// phase histograms as the same number of Update calls would, and leave the
// ring alone.
func TestTracerSafeN(t *testing.T) {
	tr := NewTracer(16)
	tr.Update(Event{Op: "+e", Class: ClassUnsafe, Total: time.Millisecond})
	tr.SafeN(127)
	c := tr.Counters()
	if c.Updates != 128 || c.Safe != 127 || c.Unsafe != 1 || c.Updates != c.Safe+c.Unsafe {
		t.Fatalf("counters = %+v", c)
	}
	for _, p := range []Phase{PhaseTotal, PhaseADS, PhaseFind} {
		if got := tr.Hist(p).Count(); got != c.Updates {
			t.Fatalf("phase %v holds %d samples for %d updates", p, got, c.Updates)
		}
	}
	if got := tr.Hist(PhaseTotal).Sum(); got != time.Millisecond {
		t.Fatalf("bulk samples carry time: sum %v", got)
	}
	if evs := tr.Ring().Snapshot(); len(evs) != 1 {
		t.Fatalf("ring has %d events, want the one Update", len(evs))
	}
}

func TestTracerWritePrometheus(t *testing.T) {
	tr := NewTracer(8)
	tr.Update(Event{Op: "+e", Class: ClassUnsafe, Matches: 2, Find: time.Millisecond, Total: time.Millisecond})
	var sb strings.Builder
	if err := tr.writePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"paracosm_updates_total 1",
		"paracosm_unsafe_updates_total 1",
		"paracosm_matches_total 2",
		"paracosm_trace_dropped_total 0",
		"# TYPE paracosm_update_total_seconds histogram",
		"paracosm_update_find_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Update(Event{Op: "+e", Class: ClassUnsafe, Nodes: 1, Total: time.Microsecond})
			}
		}()
	}
	wg.Wait()
	c := tr.Counters()
	if c.Updates != 4000 || c.Nodes != 4000 {
		t.Fatalf("counters after concurrent updates: %+v", c)
	}
	if tr.Hist(PhaseTotal).Count() != 4000 {
		t.Fatalf("histogram count = %d", tr.Hist(PhaseTotal).Count())
	}
}
