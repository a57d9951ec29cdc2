package obs

import (
	"strings"
	"testing"
	"time"
)

func TestStageNames(t *testing.T) {
	want := map[Stage]string{
		StageIngestWait: "ingest_wait",
		StageAssemble:   "assemble",
		StagePreApply:   "pre_apply",
		StageCommit:     "commit",
		StagePostApply:  "post_apply",
		StageFanout:     "fanout",
		StageSubQueue:   "sub_queue",
		StageWire:       "wire_write",
		StageCoalesce:   "coalesce",
		StageWALAppend:  "wal_append",
		StageSnapshot:   "snapshot",
	}
	if len(want) != NumStages {
		t.Fatalf("test covers %d stages, NumStages = %d", len(want), NumStages)
	}
	for st, name := range want {
		if st.String() != name {
			t.Errorf("stage %d String() = %q, want %q", int(st), st.String(), name)
		}
	}
	if s := Stage(99).String(); !strings.Contains(s, "99") {
		t.Errorf("out-of-range String() = %q", s)
	}
	// UpdateStages are exactly the per-update stages, in pipeline order.
	wantUpd := []Stage{StageIngestWait, StageAssemble, StagePreApply, StageCommit, StagePostApply}
	if len(UpdateStages) != len(wantUpd) {
		t.Fatalf("UpdateStages has %d entries, want %d", len(UpdateStages), len(wantUpd))
	}
	for i, st := range wantUpd {
		if UpdateStages[i] != st {
			t.Errorf("UpdateStages[%d] = %v, want %v", i, UpdateStages[i], st)
		}
	}
}

func TestStageSetObserve(t *testing.T) {
	s := newStageSet()
	s.Observe(StageCommit, time.Millisecond)
	s.Observe(StageCommit, 3*time.Millisecond)
	s.Observe(StageFanout, time.Microsecond)
	// Out-of-range stages are dropped, never panic.
	s.Observe(Stage(-1), time.Second)
	s.Observe(Stage(NumStages), time.Second)

	if got := s.Hist(StageCommit).Count(); got != 2 {
		t.Errorf("commit count = %d, want 2", got)
	}
	if got := s.Hist(StageCommit).Sum(); got != 4*time.Millisecond {
		t.Errorf("commit sum = %v, want 4ms", got)
	}
	if got := s.Hist(StageFanout).Count(); got != 1 {
		t.Errorf("fanout count = %d, want 1", got)
	}
	if got := s.Hist(StageIngestWait).Count(); got != 0 {
		t.Errorf("untouched stage count = %d, want 0", got)
	}
	if s.Hist(Stage(-1)) != nil || s.Hist(Stage(NumStages)) != nil {
		t.Error("out-of-range Hist should be nil")
	}
}

func TestStageClockMarkAndLap(t *testing.T) {
	s := newStageSet()
	var clk StageClock
	clk.Start()
	time.Sleep(time.Millisecond)
	d1 := clk.Mark(s, StagePreApply)
	if d1 < time.Millisecond {
		t.Errorf("first mark %v, want >= 1ms", d1)
	}
	if got := s.Hist(StagePreApply).Count(); got != 1 {
		t.Fatalf("pre_apply count = %d, want 1", got)
	}
	// Mark measures from the previous boundary, not from Start.
	d2 := clk.Mark(s, StageCommit)
	if d2 > d1 {
		t.Errorf("second mark %v measured from Start, not the previous mark (%v)", d2, d1)
	}
	// Lap advances the clock without observing anything.
	before := s.Hist(StagePostApply).Count()
	_ = clk.Lap()
	if got := s.Hist(StagePostApply).Count(); got != before {
		t.Error("Lap observed into the set")
	}
	// A deferred observation of a lapped duration lands where directed.
	time.Sleep(time.Millisecond)
	d3 := clk.Lap()
	s.Observe(StagePostApply, d3)
	if got := s.Hist(StagePostApply).Count(); got != before+1 {
		t.Errorf("deferred observe count = %d, want %d", got, before+1)
	}
	if d3 < time.Millisecond {
		t.Errorf("lap after sleep %v, want >= 1ms", d3)
	}
}

func TestStageSetWritePrometheus(t *testing.T) {
	s := newStageSet()
	for st := Stage(0); int(st) < NumStages; st++ {
		s.Observe(st, time.Duration(st+1)*time.Millisecond)
	}
	var sb strings.Builder
	if err := s.writePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range stageNames {
		family := "paracosm_stage_" + name + "_seconds"
		for _, want := range []string{
			"# TYPE " + family + " histogram",
			family + "_count 1",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("missing %q in stage exposition", want)
			}
		}
	}
}
