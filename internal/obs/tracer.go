package obs

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// Phase identifies one of the tracer's per-phase latency histograms.
type Phase int

const (
	// PhaseTotal is end-to-end per-update latency.
	PhaseTotal Phase = iota
	// PhaseADS is the ADS-maintenance slice of an update.
	PhaseADS
	// PhaseFind is the find-matches (search) slice of an update.
	PhaseFind
	// PhaseClassify is the per-batch stage-A classification time of the
	// inter-update executor (one observation per batch, not per update).
	PhaseClassify
	numPhases
)

// String returns the phase's metric-friendly name.
func (p Phase) String() string {
	switch p {
	case PhaseTotal:
		return "total"
	case PhaseADS:
		return "ads"
	case PhaseFind:
		return "find"
	case PhaseClassify:
		return "classify"
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// Event class values (see Event.Class).
const (
	ClassDirect     = "direct"
	ClassUnsafe     = "unsafe"
	ClassSafeLabel  = "safe:label"
	ClassSafeDegree = "safe:degree"
	ClassSafeADS    = "safe:ads"
	ClassVertex     = "vertex"
	// ClassServer marks serving-layer lifecycle events (srv:* ops): they
	// carry no per-update phase times and bypass the update counters.
	ClassServer = "server"
	// ClassStage marks pipeline stage events emitted by the lockstep
	// driver, one per applied update, carrying the stage durations.
	ClassStage = "stage"
)

// ServerOp enumerates the serving-layer lifecycle events a Tracer counts
// (see Tracer.ServerEvent). The fixed set keeps the observation path
// allocation-free and the /metrics series stable.
type ServerOp int

const (
	SrvAccept ServerOp = iota
	SrvReject
	SrvRegister
	SrvDeregister
	SrvSubscribe
	SrvIngest
	SrvDrop
	SrvDisconnect
	SrvSnapshot
	SrvSnapshotErr
	numServerOps
)

// srvOpRingNames are the trace-ring Op strings ("srv:"-prefixed),
// precomputed so appending a server event never concatenates.
var srvOpRingNames = [numServerOps]string{
	"srv:accept", "srv:reject", "srv:register", "srv:deregister",
	"srv:subscribe", "srv:ingest", "srv:drop", "srv:disconnect",
	"srv:snapshot", "srv:snapshot_err",
}

// String returns the bare op name (the `op` label on /metrics).
func (o ServerOp) String() string {
	if o >= 0 && o < numServerOps {
		return srvOpRingNames[o][len("srv:"):]
	}
	return fmt.Sprintf("ServerOp(%d)", int(o))
}

// Tracer is the aggregation point the engine emits into (attach one via
// core.Config.Tracer). It owns a bounded trace ring of recent per-update
// events plus fixed-memory per-phase latency histograms and a handful of
// monotonic counters; total memory is constant regardless of stream
// length, and the observation path performs no allocations.
//
// One Tracer may be shared by several engines (e.g. a MultiEngine or the
// bench harness): every method is safe for concurrent use, and the
// counters then aggregate across all of them.
type Tracer struct {
	seq    atomic.Uint64
	ring   *Ring
	hists  [numPhases]*Histogram
	stages *StageSet

	srvCounts [numServerOps]atomic.Uint64

	updates     atomic.Uint64
	safe        atomic.Uint64
	unsafeN     atomic.Uint64 // "unsafe" is a keyword-adjacent builtin package name
	escalations atomic.Uint64
	timeouts    atomic.Uint64
	reclass     atomic.Uint64
	matches     atomic.Uint64
	nodes       atomic.Uint64
	batches     atomic.Uint64

	// Window(n) coalescing counters (see Tracer.Window).
	winCoalesced   atomic.Uint64
	winAnnihilated atomic.Uint64
}

// DefaultRingCap is the trace ring capacity NewTracer uses for
// ringCap <= 0: at ~150 bytes/event it retains the last 4096 updates in
// well under a megabyte.
const DefaultRingCap = 4096

// NewTracer returns a tracer whose ring retains the last ringCap events
// (DefaultRingCap when ringCap <= 0).
func NewTracer(ringCap int) *Tracer {
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	t := &Tracer{ring: NewRing(ringCap), stages: NewStageSet()}
	for i := range t.hists {
		t.hists[i] = NewHistogram()
	}
	return t
}

// Stages returns the tracer's pipeline stage histograms (see stage.go):
// the lockstep driver and the serving layer observe into them directly.
func (t *Tracer) Stages() *StageSet { return t.stages }

// ServerEvent records one serving-layer lifecycle event: the per-op
// counter is incremented by n and one ClassServer event (Op "srv:<op>",
// Matches = n) enters the trace ring. Server events deliberately bypass
// Update so the per-update counters and latency histograms stay
// engine-only. Allocation-free (fixed op set, precomputed Op strings).
//
//paracosm:noalloc
func (t *Tracer) ServerEvent(op ServerOp, n uint64) {
	if op < 0 || op >= numServerOps {
		return
	}
	t.srvCounts[op].Add(n)
	t.ring.Append(Event{
		Seq:     t.NextSeq(),
		Op:      srvOpRingNames[op],
		Class:   ClassServer,
		Matches: n,
	})
}

// ServerCount returns the cumulative count for one server op.
func (t *Tracer) ServerCount(op ServerOp) uint64 {
	if op < 0 || op >= numServerOps {
		return 0
	}
	return t.srvCounts[op].Load()
}

// Stage records one pipeline stage event in the trace ring (ClassStage,
// one per applied update, emitted by the lockstep driver). The stage
// durations ride in the Event's stage fields; a Seq is assigned when
// zero. The per-stage histograms are observed separately by the driver
// (see StageSet) — this only feeds /trace.
//
//paracosm:noalloc
func (t *Tracer) Stage(ev Event) {
	if ev.Seq == 0 {
		ev.Seq = t.NextSeq()
	}
	ev.Class = ClassStage
	t.ring.Append(ev)
}

// NextSeq allocates the next update sequence number (1-based).
func (t *Tracer) NextSeq() uint64 { return t.seq.Add(1) }

// Update records one completed update: the event enters the ring and the
// phase histograms and counters are updated. If ev.Seq is zero a
// sequence number is assigned. Safe to call from concurrent engines.
func (t *Tracer) Update(ev Event) {
	if ev.Seq == 0 {
		ev.Seq = t.NextSeq()
	}
	t.updates.Add(1)
	switch ev.Class {
	case ClassSafeLabel, ClassSafeDegree, ClassSafeADS, ClassVertex:
		t.safe.Add(1)
	case ClassUnsafe:
		t.unsafeN.Add(1)
	}
	if ev.Escalated {
		t.escalations.Add(1)
	}
	if ev.Timeout {
		t.timeouts.Add(1)
	}
	if ev.Reclassified {
		t.reclass.Add(1)
	}
	t.matches.Add(ev.Matches)
	t.nodes.Add(ev.Nodes)
	t.hists[PhaseTotal].Observe(ev.Total)
	t.hists[PhaseADS].Observe(ev.ADS)
	t.hists[PhaseFind].Observe(ev.Find)
	t.ring.Append(ev)
}

// SafeN records n updates that were proved label-safe without being looked
// at one by one (the (query, update) pairs core.MultiEngine's dispatch index
// skips): counters and phase histograms advance exactly as under n Update
// calls of class ClassSafeLabel with zero durations, so updates == safe +
// unsafe + direct and the phase sample counts keep reconciling, but no
// event enters the ring.
//
//paracosm:noalloc
func (t *Tracer) SafeN(n uint64) {
	t.updates.Add(n)
	t.safe.Add(n)
	t.hists[PhaseTotal].ObserveN(0, n)
	t.hists[PhaseADS].ObserveN(0, n)
	t.hists[PhaseFind].ObserveN(0, n)
}

// Classify records one inter-update batch's stage-A classification time.
func (t *Tracer) Classify(d time.Duration) {
	t.batches.Add(1)
	t.hists[PhaseClassify].Observe(d)
}

// Window accumulates one window's coalescing counters: updates removed
// by coalescing and exact insert/delete pairs annihilated.
// Allocation-free.
//
//paracosm:noalloc
func (t *Tracer) Window(coalesced, annihilated uint64) {
	if coalesced != 0 {
		t.winCoalesced.Add(coalesced)
	}
	if annihilated != 0 {
		t.winAnnihilated.Add(annihilated)
	}
}

// Ring returns the trace ring.
func (t *Tracer) Ring() *Ring { return t.ring }

// Hist returns the histogram for the given phase.
func (t *Tracer) Hist(p Phase) *Histogram { return t.hists[p] }

// Counters is a snapshot of the tracer's monotonic counters.
type Counters struct {
	Updates      uint64 `json:"updates"`
	Safe         uint64 `json:"safe"`
	Unsafe       uint64 `json:"unsafe"`
	Escalations  uint64 `json:"escalations"`
	Timeouts     uint64 `json:"timeouts"`
	Reclassified uint64 `json:"reclassified"`
	Matches      uint64 `json:"matches"`
	Nodes        uint64 `json:"nodes"`
	Batches      uint64 `json:"batches"`
	TraceDropped uint64 `json:"trace_dropped"`

	WindowCoalesced   uint64 `json:"window_coalesced"`
	WindowAnnihilated uint64 `json:"window_annihilated"`
}

// Counters returns a snapshot of the aggregate counters.
func (t *Tracer) Counters() Counters {
	return Counters{
		Updates:      t.updates.Load(),
		Safe:         t.safe.Load(),
		Unsafe:       t.unsafeN.Load(),
		Escalations:  t.escalations.Load(),
		Timeouts:     t.timeouts.Load(),
		Reclassified: t.reclass.Load(),
		Matches:      t.matches.Load(),
		Nodes:        t.nodes.Load(),
		Batches:      t.batches.Load(),
		TraceDropped: t.ring.Dropped(),

		WindowCoalesced:   t.winCoalesced.Load(),
		WindowAnnihilated: t.winAnnihilated.Load(),
	}
}

// WritePrometheus emits every counter and per-phase histogram in
// Prometheus text exposition format (the /metrics payload).
func (t *Tracer) WritePrometheus(w io.Writer) error {
	c := t.Counters()
	counters := []struct {
		name, help string
		v          uint64
	}{
		{"paracosm_updates_total", "Updates processed (safe + unsafe + direct).", c.Updates},
		{"paracosm_safe_updates_total", "Updates the classifier proved safe (incl. vertex ops).", c.Safe},
		{"paracosm_unsafe_updates_total", "Updates that ran the full inner-parallel path after classification.", c.Unsafe},
		{"paracosm_escalations_total", "Updates whose search escalated to the parallel phase.", c.Escalations},
		{"paracosm_timeouts_total", "Updates cut off by the context deadline.", c.Timeouts},
		{"paracosm_reclassified_total", "Safe-at-classification updates found unsafe at re-validation.", c.Reclassified},
		{"paracosm_matches_total", "Incremental matches reported (positive + negative).", c.Matches},
		{"paracosm_search_nodes_total", "Search-tree nodes visited.", c.Nodes},
		{"paracosm_batches_total", "Inter-update executor batch rounds.", c.Batches},
		{"paracosm_trace_dropped_total", "Trace events overwritten in the ring.", c.TraceDropped},
		{"paracosm_window_coalesced_total", "Updates removed by window coalescing (Window(n)).", c.WindowCoalesced},
		{"paracosm_window_annihilated_total", "Exact insert/delete pairs annihilated by window coalescing (2 updates each).", c.WindowAnnihilated},
	}
	for _, m := range counters {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", m.name, m.help, m.name, m.name, m.v); err != nil {
			return err
		}
	}
	// Serving-layer lifecycle event counts (srv:* trace events). The full
	// fixed op set is always emitted, zeros included, so the series exist
	// before the first event and scrapers can alert on their absence.
	if _, err := fmt.Fprintf(w, "# HELP paracosm_server_events_total Serving-layer lifecycle events recorded in the trace ring, by op.\n# TYPE paracosm_server_events_total counter\n"); err != nil {
		return err
	}
	for op := ServerOp(0); op < numServerOps; op++ {
		if _, err := fmt.Fprintf(w, "paracosm_server_events_total{op=%q} %d\n", op.String(), t.srvCounts[op].Load()); err != nil {
			return err
		}
	}
	for p := Phase(0); p < numPhases; p++ {
		name := "paracosm_update_" + p.String() + "_seconds"
		if p == PhaseClassify {
			name = "paracosm_batch_classify_seconds"
		}
		if err := t.hists[p].WritePrometheus(w, name); err != nil {
			return err
		}
	}
	return t.stages.WritePrometheus(w)
}

// EscapeLabel escapes a Prometheus label value per the text exposition
// format: backslash, double-quote and newline must be backslash-escaped.
// Serving-layer metrics use it for client-supplied query names.
func EscapeLabel(v string) string {
	// Fast path: nothing to escape.
	clean := true
	for i := 0; i < len(v); i++ {
		if c := v[i]; c == '\\' || c == '"' || c == '\n' {
			clean = false
			break
		}
	}
	if clean {
		return v
	}
	out := make([]byte, 0, len(v)+8)
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, c)
		}
	}
	return string(out)
}
