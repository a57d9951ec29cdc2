package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// Span is one timed interval of a traced run. A rung's pass is a span
// whose Parent is 0 and whose Below names the rung it wraps; the client
// calls made during a server rung's pass are its children.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Below  string `json:"below,omitempty"`
	Pass   int    `json:"pass"`
	Start  int64  `json:"start_ns"` // since the recorder was made
	End    int64  `json:"end_ns"`
}

// spanRecorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced runs call the same code.
type spanRecorder struct {
	origin time.Time
	spans  []Span
	pass   int
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{origin: time.Now()} }

// begin opens a span and returns its id (0 from a nil recorder).
func (r *spanRecorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Name: name, Pass: r.pass, Start: int64(time.Since(r.origin))})
	return len(r.spans)
}

func (r *spanRecorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].End = int64(time.Since(r.origin))
}

// durations returns the lengths of every span with the given name.
func (r *spanRecorder) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// traceFile is what a traced run writes to <out>/trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Updates  int    `json:"updates_per_pass"`
	// SelfUS is each layer's self time per update: its rung's median pass
	// minus the rung below's.
	SelfUS map[string]float64 `json:"self_us_per_update"`
	Spans  []Span             `json:"spans"`
}

func writeTrace(dir string, tf traceFile) (string, error) {
	path := filepath.Join(dir, "trace-"+tf.Workload+".json")
	b, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
