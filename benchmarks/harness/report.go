package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// MetricDef names one metric of the benchmark's contract (BENCHMARK.json
// lists the same names; the smoke test keeps the two in step).
type MetricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// EndToEnd are the eight metrics a user of the system would see. Every
// run with -trace 0 reports all of them on every workload; what each one
// measures on a library and on a serve workload is in ../README.md.
var EndToEnd = []MetricDef{
	{"updates_per_s", "updates/s", "higher"},
	{"seq_updates_per_s", "updates/s", "higher"},
	{"cpu_us_per_update", "us", "lower"},
	{"detect_latency_p50_ms", "ms", "lower"},
	{"detect_latency_p95_ms", "ms", "lower"},
	{"recovery_s", "s", "lower"},
	{"rss_peak_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// PerLayer are the metrics of single layers, reported by a -trace 1 run.
// They carry no bounds.
var PerLayer = []MetricDef{
	// The ladder: each rung adds one layer around the one below.
	{"ladder.r0_graph_us_per_update", "us", "lower"},
	{"ladder.r1_core_us_per_update", "us", "lower"},
	{"ladder.r2_stream_us_per_update", "us", "lower"},
	{"ladder.r3_server_us_per_update", "us", "lower"},
	{"ladder.r4_wal_us_per_update", "us", "lower"},
	{"ladder.r5_tracer_us_per_update", "us", "lower"},
	{"graph.self_us_per_update", "us", "lower"},
	{"core.self_us_per_update", "us", "lower"},
	{"stream.self_us_per_update", "us", "lower"},
	{"server.self_us_per_update", "us", "lower"},
	{"wal.self_us_per_update", "us", "lower"},
	{"obs.self_us_per_update", "us", "lower"},

	{"graph.apply_ns_per_update", "ns", "lower"},
	{"graph.intersect_ns_per_call", "ns", "lower"},
	{"graph.neighbors_with_label_ns_per_call", "ns", "lower"},
	{"graph.footprint_ns_per_call", "ns", "lower"},
	{"graph.clone_ms", "ms", "lower"},
	{"graph.state_write_ms", "ms", "lower"},
	{"graph.state_read_ms", "ms", "lower"},
	{"graph.kernel_intersections", "count", "lower"},
	{"graph.kernel_galloped_ratio", "ratio", "higher"},
	{"graph.candidate_hit_ratio", "ratio", "higher"},

	{"stream.parse_ns_per_update", "ns", "lower"},
	{"stream.encode_ns_per_update", "ns", "lower"},
	{"stream.coalesce_ns_per_update", "ns", "lower"},
	{"stream.coalesce_survivor_ratio", "ratio", "lower"},

	{"algo.init_ms_per_query", "ms", "lower"},
	{"algo.ads_share", "ratio", "lower"},
	{"algo.find_share", "ratio", "lower"},
	{"algo.nodes_per_update", "count", "lower"},
	{"algo.matches_per_update", "count", "higher"},

	{"core.process_update_ns_p50", "ns", "lower"},
	{"core.safe_ratio", "ratio", "higher"},
	{"core.safe_by_label_ratio", "ratio", "higher"},
	{"core.reclassified_ratio", "ratio", "lower"},
	{"core.escalation_rate", "ratio", "lower"},
	{"core.resplits_per_escalation", "count", "lower"},
	{"core.thread_busy_share", "ratio", "higher"},
	{"core.par_speedup", "ratio", "higher"},
	{"core.window_coalesced_ratio", "ratio", "higher"},
	{"core.window_parallel_unsafe_ratio", "ratio", "higher"},
	{"core.window_max_group", "count", "higher"},
	{"core.window_serial_fallback_ratio", "ratio", "lower"},
	{"core.multi_us_per_update", "us", "lower"},
	{"core.multi_us_per_update_per_query", "us", "lower"},
	{"core.register_live_ms", "ms", "lower"},

	{"concurrent.pool_epoch_ns", "ns", "lower"},
	{"concurrent.pool_parks_per_escalation", "count", "lower"},
	{"concurrent.pool_wakeups_per_escalation", "count", "lower"},

	{"server.wire_encode_ns_per_update", "ns", "lower"},
	{"server.wire_decode_ns_per_update", "ns", "lower"},
	{"server.send_rtt_ms_p50", "ms", "lower"},
	{"server.flush_rtt_ms_p50", "ms", "lower"},
	{"server.mean_batch_size", "count", "higher"},
	{"server.deltas_per_update", "count", "lower"},
	{"server.delta_drop_ratio", "ratio", "lower"},

	{"wal.append_us_per_update", "us", "lower"},
	{"wal.bytes_per_update", "count", "lower"},
	{"wal.flushes_per_1k_updates", "count", "lower"},
	{"wal.fsyncs_per_s", "1/s", "lower"},
	{"wal.snapshot_write_ms", "ms", "lower"},
	{"wal.snapshot_us_per_update", "us", "lower"},
	{"wal.snapshot_load_ms", "ms", "lower"},
	{"wal.replay_records_per_s", "1/s", "higher"},

	{"obs.histogram_observe_ns", "ns", "lower"},
	{"obs.tracer_overhead_pct", "%", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one run of one workload.
type Result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Attempted int               `json:"ops_attempted"`
	Failed    int               `json:"ops_failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]Metric `json:"metrics"`
	// Notes are numbers printed beside the metrics (sample counts, pass
	// counts, generator lateness) that are not part of the contract.
	Notes map[string]Metric `json:"notes,omitempty"`
	// Passes are the timed passes' wall times in seconds, per
	// configuration, for anyone who wants to look at the noise itself.
	Passes map[string][]float64 `json:"passes,omitempty"`
	// TraceFile is where a traced run wrote its spans.
	TraceFile string `json:"trace_file,omitempty"`
	Env       Env    `json:"env"`
}

// Correct reports whether every gate held.
func (r *Result) Correct() bool { return r.Failed == 0 }

func newResult(in *Inputs, secs int, trace bool) *Result {
	return &Result{
		Workload: in.Spec.Name, Seed: in.Seed, Seconds: secs, Trace: trace,
		Metrics: map[string]Metric{}, Notes: map[string]Metric{}, Env: captureEnv(),
	}
}

// set reports one metric of the run's contract list: the end-to-end
// metrics, or on a traced run the per-layer ones.
func (r *Result) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.failf("metric %s is not a finite number", name)
		v = 0
	}
	defs := EndToEnd
	if r.Trace {
		defs = PerLayer
	}
	for _, d := range defs {
		if d.Name == name {
			r.Metrics[name] = Metric{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("harness: metric " + name + " is not in the contract")
}

func (r *Result) note(name string, v float64, unit string) {
	r.Notes[name] = Metric{Value: v, Unit: unit}
}

// phases notes how long each phase of a run took, so a reader can see
// where a run's wall time went.
type phases struct {
	r    *Result
	last time.Time
}

func newPhases(r *Result) *phases { return &phases{r: r, last: time.Now()} }

func (p *phases) mark(name string) {
	now := time.Now()
	p.r.note("phase_"+name+"_s", now.Sub(p.last).Seconds(), "s")
	p.last = now
}

// attempt counts n operations the run asked the system to perform.
func (r *Result) attempt(n int) { r.Attempted += n }

// failf counts one failed operation or violated gate.
func (r *Result) failf(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// WriteText prints every metric by name with its unit, then the notes.
func (r *Result) WriteText(w io.Writer) {
	mode := "end-to-end"
	if r.Trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "workload %s  seed %d  seconds %d  %s\n", r.Workload, r.Seed, r.Seconds, mode)
	fmt.Fprintf(w, "env: %s, %s, linux %s, %d cpu, GOMAXPROCS %d, loadavg %s -> %s\n",
		r.Env.GoVersion, r.Env.CPUModel, r.Env.Kernel, r.Env.NumCPU, r.Env.GOMAXPROCS, r.Env.LoadStart, r.Env.LoadEnd)
	printSorted(w, "  ", r.Metrics)
	if len(r.Notes) > 0 {
		fmt.Fprintln(w, "notes:")
		printSorted(w, "  ", r.Notes)
	}
	if r.TraceFile != "" {
		fmt.Fprintf(w, "spans written to %s\n", r.TraceFile)
	}
	fmt.Fprintf(w, "ops_attempted %d  ops_failed %d\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAIL: %s\n", f)
	}
}

func printSorted(w io.Writer, indent string, m map[string]Metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s%-42s %14.6g %s\n", indent, n, m[n].Value, m[n].Unit)
	}
}

// ContractLine is the one-line JSON object the acceptance driver reads
// from the last line of standard output.
func (r *Result) ContractLine() string {
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.Correct(), attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}
