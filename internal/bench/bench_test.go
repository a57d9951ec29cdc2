package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"paracosm/internal/dataset"
)

// tinyConfig keeps every experiment in the sub-second range.
func tinyConfig() Config {
	return Config{
		Scale:          0.0004,
		Seed:           2,
		QueriesPerSize: 1,
		StreamCap:      60,
		Budget:         400 * time.Millisecond,
		Threads:        4,
	}.Defaults()
}

func TestDefaults(t *testing.T) {
	c := Config{}.Defaults()
	if c.Scale <= 0 || c.QueriesPerSize <= 0 || c.StreamCap <= 0 || c.Budget <= 0 || c.Threads <= 0 {
		t.Fatalf("defaults not filled: %+v", c)
	}
	// Explicit values survive.
	c = Config{Scale: 0.5, Threads: 2, Budget: time.Minute}.Defaults()
	if c.Scale != 0.5 || c.Threads != 2 || c.Budget != time.Minute {
		t.Fatalf("explicit values overwritten: %+v", c)
	}
}

func TestByID(t *testing.T) {
	for _, e := range AllWithAblations() {
		got, err := ByID(e.ID)
		if err != nil || got.ID != e.ID {
			t.Fatalf("ByID(%q) = %v, %v", e.ID, got.ID, err)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestExperimentIDsAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range AllWithAblations() {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %q incomplete", e.ID)
		}
	}
}

// TestEveryExperimentRuns executes the full registry at tiny scale and
// checks each produces non-trivial tabular output.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := tinyConfig()
	for _, e := range AllWithAblations() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(cfg, &buf); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			out := buf.String()
			if len(out) < 40 {
				t.Fatalf("%s: suspiciously short output:\n%s", e.ID, out)
			}
			if !strings.Contains(out, "|") && !strings.Contains(out, "=") {
				t.Fatalf("%s: no table or key figures in output:\n%s", e.ID, out)
			}
		})
	}
}

func TestStreamCapApplies(t *testing.T) {
	cfg := tinyConfig()
	d := cfg.data(dataset.AmazonSpec)
	s := cfg.stream(d)
	if len(s) > cfg.StreamCap {
		t.Fatalf("stream length %d exceeds cap %d", len(s), cfg.StreamCap)
	}
}
