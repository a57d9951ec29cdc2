package obs

import (
	"strings"
	"testing"
	"time"
)

func TestAnalyze(t *testing.T) {
	var evs []Event
	for i := 1; i <= 100; i++ {
		evs = append(evs, Event{
			Seq: uint64(i), Op: "+e", U: uint32(i), V: uint32(i + 1),
			Class: ClassUnsafe, Nodes: 10, Matches: 1,
			ADS:   time.Microsecond,
			Find:  time.Duration(i) * time.Microsecond,
			Total: time.Duration(i) * time.Microsecond,
		})
	}
	evs[99].Escalated = true
	evs[99].Resplits = 4
	evs[99].Timeout = true

	a := Analyze(evs, 3)
	if a.Events != 100 || a.Escalations != 1 || a.Timeouts != 1 {
		t.Fatalf("analysis = %+v", a)
	}
	if a.ByClass[ClassUnsafe] != 100 {
		t.Fatalf("ByClass = %v", a.ByClass)
	}
	if a.Nodes != 1000 || a.Matches != 100 {
		t.Fatalf("nodes/matches = %d/%d", a.Nodes, a.Matches)
	}
	if a.P50 != 50*time.Microsecond || a.P99 != 99*time.Microsecond || a.Max != 100*time.Microsecond {
		t.Fatalf("quantiles p50=%v p99=%v max=%v", a.P50, a.P99, a.Max)
	}
	if len(a.Stragglers) != 3 || a.Stragglers[0].Seq != 100 || a.Stragglers[1].Seq != 99 {
		t.Fatalf("stragglers = %+v", a.Stragglers)
	}

	var sb strings.Builder
	a.Render(&sb)
	out := sb.String()
	for _, want := range []string{"events", "unsafe=100", "top 3 stragglers", "seq=100", "TIMEOUT"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestAnalyzeSegregatesServerAndStageEvents: serve-mode traces interleave
// per-update engine events with Class "server" lifecycle rows and Class
// "stage" pipeline rows. The latter two must land in their own tallies
// and stay OUT of the update count, phase totals and latency quantiles —
// zero-duration srv:* rows would otherwise drag p50 to zero.
func TestAnalyzeSegregatesServerAndStageEvents(t *testing.T) {
	var evs []Event
	for i := 1; i <= 10; i++ {
		evs = append(evs, Event{
			Seq: uint64(i), Op: "+e", Class: ClassUnsafe,
			Find: time.Duration(i) * time.Microsecond, Total: time.Duration(i) * time.Microsecond,
		})
	}
	evs = append(evs,
		Event{Seq: 11, Class: ClassServer, Op: "srv:ingest", Matches: 40},
		Event{Seq: 12, Class: ClassServer, Op: "srv:ingest", Matches: 2},
		Event{Seq: 13, Class: ClassServer, Op: "srv:accept", Matches: 1},
		Event{Seq: 14, Class: ClassStage, Op: "+e",
			IngestWait: 2 * time.Microsecond, Assemble: time.Microsecond,
			PreApply: 3 * time.Microsecond, Commit: time.Microsecond, PostApply: 5 * time.Microsecond},
		Event{Seq: 15, Class: ClassStage, Op: "+e", Commit: 2 * time.Microsecond},
	)

	a := Analyze(evs, 2)
	if a.Events != 10 {
		t.Fatalf("update events = %d, want 10 (server/stage rows leaked in)", a.Events)
	}
	if a.ServerEvents != 3 || a.ByServerOp["srv:ingest"] != 42 || a.ByServerOp["srv:accept"] != 1 {
		t.Fatalf("server tally = %d %v", a.ServerEvents, a.ByServerOp)
	}
	if a.StageEvents != 2 {
		t.Fatalf("stage events = %d, want 2", a.StageEvents)
	}
	want := StageBreakdown{
		IngestWait: 2 * time.Microsecond, Assemble: time.Microsecond,
		PreApply: 3 * time.Microsecond, Commit: 3 * time.Microsecond, PostApply: 5 * time.Microsecond,
	}
	if a.Stages != want {
		t.Fatalf("stage breakdown = %+v, want %+v", a.Stages, want)
	}
	if got, wantTotal := a.Stages.total(), 14*time.Microsecond; got != wantTotal {
		t.Fatalf("stage total = %v, want %v", got, wantTotal)
	}
	// Quantiles and phase totals are over the 10 update events only.
	if a.P50 != 5*time.Microsecond || a.Max != 10*time.Microsecond {
		t.Fatalf("quantiles polluted: p50=%v max=%v", a.P50, a.Max)
	}
	if a.Total != 55*time.Microsecond {
		t.Fatalf("phase total polluted: %v", a.Total)
	}
	if a.ByClass[ClassServer] != 0 || a.ByClass[ClassStage] != 0 {
		t.Fatalf("server/stage classes leaked into ByClass: %v", a.ByClass)
	}

	var sb strings.Builder
	a.Render(&sb)
	out := sb.String()
	for _, wantLine := range []string{
		"server events : 3", "srv:ingest=42",
		"pipeline      : 2 staged updates", "stage shares", "commit 21.4%",
	} {
		if !strings.Contains(out, wantLine) {
			t.Errorf("report missing %q:\n%s", wantLine, out)
		}
	}
}

// TestAnalyzeServerOnlyTrace: a trace holding nothing but lifecycle rows
// (an idle server's dump) renders the server section and no update
// sections, without dividing by zero.
func TestAnalyzeServerOnlyTrace(t *testing.T) {
	evs := []Event{
		{Seq: 1, Class: ClassServer, Op: "srv:accept", Matches: 1},
		{Seq: 2, Class: ClassServer, Op: "srv:register", Matches: 1},
	}
	a := Analyze(evs, 3)
	if a.Events != 0 || a.ServerEvents != 2 {
		t.Fatalf("analysis = %+v", a)
	}
	var sb strings.Builder
	a.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "srv:register=1") {
		t.Errorf("missing server tally:\n%s", out)
	}
	if strings.Contains(out, "update latency") {
		t.Errorf("update sections rendered for a server-only trace:\n%s", out)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	a := Analyze(nil, 5)
	if a.Events != 0 || len(a.Stragglers) != 0 {
		t.Fatalf("empty analysis = %+v", a)
	}
	var sb strings.Builder
	a.Render(&sb) // must not panic
}
