// Package core implements ParaCOSM itself: the two-level parallel
// framework of the paper. Given any csm.Algorithm (the user-supplied
// traversal routine plus filtering rule), it provides
//
//   - the inner-update executor (§4.1, Algorithm 2): fine-grained
//     decomposition of each update's search tree into subtree tasks,
//     dispatched through a concurrent queue with adaptive re-splitting
//     driven by idle-thread detection; and
//
//   - the inter-update executor (§4.2): a three-stage update type
//     classifier (label filter, degree filter, ADS/candidate filter) run
//     on every update against the current state, so that safe updates
//     skip enumeration (and, at stage 3, ADS maintenance).
//
// One per-update pipeline (pipeline.go) runs under one driver: the
// MultiEngine's lockstep step, which drives a standalone Engine as a query
// set of one over its own graph.
package core

import (
	"io"
	"runtime"
	"time"

	"paracosm/internal/csm"
	"paracosm/internal/obs"
	"paracosm/internal/stream"
)

// Config controls ParaCOSM's parallel execution.
type Config struct {
	// Threads caps the goroutines searching one update, the caller and
	// workers of the driver's one pool (N and M of the speedup model,
	// §4.3). Defaults to runtime.GOMAXPROCS(0). Threads == 1 degenerates
	// to faithful sequential execution.
	Threads int

	// SplitDepth is SPLIT_DEPTH of Algorithm 2: search-tree nodes at
	// depth below it may be re-split into queue tasks when idle threads
	// are detected. 0 (the default) auto-tunes to |V(Q)|-2 at Init, so
	// that even explosions deep in the tree can be shared; set it lower
	// to bound task-splitting overhead.
	SplitDepth int

	// EscalateNodes is the sequential node budget per update before the
	// inner-update executor escalates to the parallel phase. Update
	// streams are heavy-tailed: most search trees die within a few
	// nodes, so parallel coordination is only engaged for trees that
	// prove heavy. Defaults to 4096.
	EscalateNodes int

	// LoadBalance enables adaptive task re-splitting during the parallel
	// phase. Disabling it reproduces the "unbalanced" configuration of
	// Figure 10: tasks are only split during initialization.
	LoadBalance bool

	// InterUpdate enables the safe/unsafe update classifier. Disabling it
	// processes every update through the full (inner-parallel) path,
	// the baseline of Figure 11.
	InterUpdate bool

	// Simulate switches the executors to execution-driven schedule
	// simulation (see sim.go): the search runs for real, on one
	// goroutine, but parallel find times, classification times and
	// per-worker loads are computed for Threads virtual workers from
	// measured task times. Use on machines with fewer cores than the
	// configuration under study. Only a single Engine simulates: NewMulti
	// clears the flag, so a MultiEngine always runs its executors for real.
	Simulate bool

	// Tracer, if non-nil, receives one obs.Event per processed update
	// (safe and unsafe alike): the always-on observability hook behind
	// the /debug server. nil (the default) costs a single predictable
	// branch per update and zero allocations — the hot path is unchanged.
	// A single Tracer may be shared across engines; its counters then
	// aggregate.
	Tracer *obs.Tracer

	// OnDelta, if non-nil, observes the incremental result of every update
	// the driver visits the engine with — the match-delta hook the serving
	// layer subscribes to instead of polling Stats. It fires after the
	// update is fully applied (safe updates report an empty ΔM; a
	// timed-out update reports its partial lower-bound ΔM), never
	// concurrently with itself. An edge update the dispatch index keeps
	// away from the engine has a provably empty ΔM and fires nothing. Like Tracer, nil (the
	// default) costs one predictable branch per update and zero
	// allocations; the callback must not block — a slow consumer stalls
	// the update path.
	OnDelta DeltaFunc

	// Window enables update windows when > 1: the stream is cut into
	// windows of up to Window updates, each window is coalesced (exact
	// insert/delete pairs annihilate, repeated touches of one edge fold to
	// their net effect) and the survivors run through the per-update
	// executor in window order — so a windowed run equals a per-update run
	// over each window coalesced, and only NET totals compare with the raw
	// stream (DESIGN.md §15). 0 or 1 (the default) is the per-update
	// executor alone. Ignored under Simulate (the simulator models the
	// per-update schedule).
	Window int
}

// DeltaFunc observes one processed update's incremental result (see
// Config.OnDelta). timeout marks updates cut off by the context deadline,
// whose Delta is a partial lower bound on the true ΔM.
type DeltaFunc func(upd stream.Update, d csm.Delta, timeout bool)

// Option mutates a Config.
type Option func(*Config)

// Threads caps the goroutines searching one update, the caller included.
func Threads(n int) Option { return func(c *Config) { c.Threads = n } }

// SplitDepth sets SPLIT_DEPTH for adaptive task splitting.
func SplitDepth(d int) Option { return func(c *Config) { c.SplitDepth = d } }

// EscalateNodes sets the sequential node budget before parallel
// escalation.
func EscalateNodes(n int) Option { return func(c *Config) { c.EscalateNodes = n } }

// LoadBalance toggles adaptive re-splitting (Figure 10 ablation).
func LoadBalance(on bool) Option { return func(c *Config) { c.LoadBalance = on } }

// InterUpdate toggles the update classifier (Figure 11 ablation).
func InterUpdate(on bool) Option { return func(c *Config) { c.InterUpdate = on } }

// Simulate toggles execution-driven schedule simulation.
func Simulate(on bool) Option { return func(c *Config) { c.Simulate = on } }

// WithTracer attaches an observability tracer (nil detaches).
func WithTracer(t *obs.Tracer) Option { return func(c *Config) { c.Tracer = t } }

// Window sets the coalescing window size (0 or 1 disables windowing).
func Window(n int) Option { return func(c *Config) { c.Window = n } }

// maxThreads bounds the real searchers: a slot (caller 0, worker seat
// k < Threads) must fit csm.State.Slot. Simulated workers have no slot.
const maxThreads = 255

func defaultConfig() Config {
	return Config{
		Threads:     runtime.GOMAXPROCS(0),
		LoadBalance: true,
		InterUpdate: true,
	}
}

func (c *Config) normalize() {
	if c.Threads < 1 {
		c.Threads = 1
	}
	if c.Threads > maxThreads && !c.Simulate {
		c.Threads = maxThreads
	}
	if c.SplitDepth < 0 {
		c.SplitDepth = 0
	}
	if c.EscalateNodes < 1 {
		c.EscalateNodes = 4096
	}
	if c.Window < 0 || c.Simulate {
		c.Window = 0 // the simulator models the per-update schedule
	}
}

// WindowCounters instruments Window(n). A standalone Engine accumulates
// them inside its Stats; a MultiEngine counts at the shared driver level
// (once per update, not per query) and reports them as
// MultiEngine.TotalStats().Window.
//
// UnsafeParallel, FallbackSerial and MaxGroup are left from the deleted
// wave scheduler only because benchmarks/harness reads them: every
// survivor is committed alone, in window order. They leave, together
// with internal/graph/footprint.go, in ROADMAP item 14's benchmark change.
type WindowCounters struct {
	Windows        int // windows executed
	Coalesced      int // updates removed by window coalescing
	Annihilated    int // exact insert/delete pairs annihilated (2 updates each)
	UnsafeParallel int // always 0
	FallbackSerial int // survivors committed
	MaxGroup       int // 1 once a window had a survivor, else 0
}

// add accumulates o into w (MaxGroup takes the max).
func (w *WindowCounters) add(o WindowCounters) {
	w.Windows += o.Windows
	w.Coalesced += o.Coalesced
	w.Annihilated += o.Annihilated
	w.UnsafeParallel += o.UnsafeParallel
	w.FallbackSerial += o.FallbackSerial
	if o.MaxGroup > w.MaxGroup {
		w.MaxGroup = o.MaxGroup
	}
}

// Stats aggregates a run's instrumentation, backing the paper's breakdown
// figures: the ADS/FindMatches split (Table 3), safe-update ratios
// (Table 4), classifier stage effectiveness (Figure 12) and per-thread
// busy times (Figure 10).
type Stats struct {
	Updates  int
	Positive uint64
	Negative uint64
	Nodes    uint64

	TADS   time.Duration
	TFind  time.Duration
	TTotal time.Duration

	// Inter-update executor counters.
	SafeUpdates   int
	UnsafeUpdates int
	// Reclassified is always 0: every update is classified once, when it
	// runs, so no verdict is ever re-validated. It stays only because
	// benchmarks/harness reads it.
	Reclassified  int
	SafeByLabel   int // rejected by stage 1
	SafeByDegree  int // passed stage 1, rejected by stage 2
	SafeByADS     int // passed stages 1-2, rejected by stage 3
	VertexUpdates int // trivially safe vertex ops

	// Inner-update executor / worker pool counters.
	Escalations int    // updates that escalated to the parallel phase
	Timeouts    int    // updates whose find phase the context deadline cut off
	Resplits    uint64 // subtrees re-split into pool tasks (adaptive sharing)
	Parks       uint64 // escalated-job searchers out of spans while others ran: caller waits, helpers leave
	Wakeups     uint64 // escalated-job searchers taking spans up: helpers join, the caller resumes

	// Window(n) counters (Config.Window > 1).
	Window WindowCounters

	// ThreadBusy holds cumulative per-thread busy times during
	// find-matches phases. Slot 0 is the caller thread: root collection,
	// every update's sequential phase and its spans of escalated ones.
	// Slot k is the pool worker on seat k of an escalated job. Figure 10's
	// CDF is computed over all slots, so sequential search time counts.
	ThreadBusy []time.Duration
}

// EscalationRate returns the fraction of updates whose search escalated to
// the parallel phase.
func (s Stats) EscalationRate() float64 {
	if s.Updates == 0 {
		return 0
	}
	return float64(s.Escalations) / float64(s.Updates)
}

// Add accumulates o into s (counters summed, ThreadBusy merged
// elementwise). MultiEngine uses it to retain the totals of deregistered
// queries so serving-layer metrics stay monotonic across disconnects.
func (s *Stats) Add(o Stats) {
	s.Updates += o.Updates
	s.Positive += o.Positive
	s.Negative += o.Negative
	s.Nodes += o.Nodes
	s.TADS += o.TADS
	s.TFind += o.TFind
	s.TTotal += o.TTotal
	s.SafeUpdates += o.SafeUpdates
	s.UnsafeUpdates += o.UnsafeUpdates
	s.Reclassified += o.Reclassified
	s.SafeByLabel += o.SafeByLabel
	s.SafeByDegree += o.SafeByDegree
	s.SafeByADS += o.SafeByADS
	s.VertexUpdates += o.VertexUpdates
	s.Escalations += o.Escalations
	s.Timeouts += o.Timeouts
	s.Resplits += o.Resplits
	s.Parks += o.Parks
	s.Wakeups += o.Wakeups
	s.Window.add(o.Window)
	for len(s.ThreadBusy) < len(o.ThreadBusy) {
		s.ThreadBusy = append(s.ThreadBusy, 0)
	}
	for i, d := range o.ThreadBusy {
		s.ThreadBusy[i] += d
	}
}

// WritePrometheus writes s as the engine-work counters of the /metrics
// payload. It is the only source of those series: each host registers it,
// as an obs.MetricsFunc, over the total it keeps (a MultiEngine's
// TotalStats, an Engine's Stats, the bench harness's finished runs).
func (s Stats) WritePrometheus(w io.Writer) error {
	return obs.WriteSeries(w, []obs.Series{
		obs.Counter("paracosm_updates_total", "Updates processed (safe + unsafe + direct).", uint64(s.Updates)),
		obs.Counter("paracosm_safe_updates_total", "Updates the classifier proved safe (incl. vertex ops).", uint64(s.SafeUpdates)),
		obs.Counter("paracosm_unsafe_updates_total", "Updates that ran the full inner-parallel path after classification.", uint64(s.UnsafeUpdates)),
		obs.Counter("paracosm_escalations_total", "Updates whose search escalated to the parallel phase.", uint64(s.Escalations)),
		obs.Counter("paracosm_timeouts_total", "Updates cut off by the context deadline.", uint64(s.Timeouts)),
		obs.Counter("paracosm_matches_total", "Incremental matches reported (positive + negative).", s.Positive+s.Negative),
		obs.Counter("paracosm_search_nodes_total", "Search-tree nodes visited.", s.Nodes),
		obs.Counter("paracosm_window_coalesced_total", "Updates removed by window coalescing (Window(n)).", uint64(s.Window.Coalesced)),
		obs.Counter("paracosm_window_annihilated_total", "Exact insert/delete pairs annihilated by window coalescing (2 updates each).", uint64(s.Window.Annihilated)),
	})
}

// SafeRatio returns the fraction of updates classified safe (γ of the
// speedup model).
func (s Stats) SafeRatio() float64 {
	if s.Updates == 0 {
		return 0
	}
	return float64(s.SafeUpdates) / float64(s.Updates)
}
