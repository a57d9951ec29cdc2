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

	for _, p := range []Phase{PhaseTotal, PhaseADS, PhaseFind} {
		if got := tr.Hist(p).Count(); got != 4 {
			t.Fatalf("phase %v histogram count = %d, want 4", p, got)
		}
	}
	if got := tr.Hist(PhaseFind).Sum(); got != time.Millisecond {
		t.Fatalf("find histogram sum = %v, want 1ms", got)
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

// TestTracerSafeN: bulk-recorded label-safe updates move the phase
// histograms as the same number of Update calls would, and leave the ring
// alone.
func TestTracerSafeN(t *testing.T) {
	tr := NewTracer(16)
	tr.Update(Event{Op: "+e", Class: ClassUnsafe, Total: time.Millisecond})
	tr.SafeN(127)
	for _, p := range []Phase{PhaseTotal, PhaseADS, PhaseFind} {
		if got := tr.Hist(p).Count(); got != 128 {
			t.Fatalf("phase %v holds %d samples for 128 updates", p, got)
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
	tr.ServerEvent(SrvIngest, 3)
	var sb strings.Builder
	if err := tr.writePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, "paracosm_updates_total") {
		t.Error("the tracer writes engine counters; they come from core.Stats")
	}
	for _, want := range []string{
		"# HELP paracosm_trace_dropped_total Trace events overwritten in the ring.\n# TYPE paracosm_trace_dropped_total counter\nparacosm_trace_dropped_total 0\n",
		`paracosm_server_events_total{op="ingest"} 3`,
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
	if got := tr.Ring().Total(); got != 4000 {
		t.Fatalf("ring saw %d events after concurrent updates, want 4000", got)
	}
	if tr.Hist(PhaseTotal).Count() != 4000 {
		t.Fatalf("histogram count = %d", tr.Hist(PhaseTotal).Count())
	}
}
