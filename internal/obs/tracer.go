package obs

import (
	"fmt"
	"io"
	"sync/atomic"
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
	// carry no per-update phase times and bypass the phase histograms.
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
// events, fixed-memory per-phase and per-stage latency histograms and the
// serving layer's lifecycle event counts; total memory is constant
// regardless of stream length, and the observation path performs no
// allocations. It counts no engine work: updates, verdicts, nodes and
// matches are counted once, in each engine's core.Stats, and /metrics
// renders them from there (see core.Stats.WritePrometheus).
//
// One Tracer may be shared by several engines (e.g. a MultiEngine or the
// bench harness): every method is safe for concurrent use, and the
// histograms then aggregate across all of them.
type Tracer struct {
	seq    atomic.Uint64
	ring   *Ring
	hists  [numPhases]*Histogram
	stages *StageSet

	srvCounts [numServerOps]atomic.Uint64
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
	t := &Tracer{ring: newRing(ringCap), stages: newStageSet()}
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
// Update so the phase histograms stay engine-only. Allocation-free (fixed
// op set, precomputed Op strings).
//
//paracosm:noalloc
func (t *Tracer) ServerEvent(op ServerOp, n uint64) {
	if op < 0 || op >= numServerOps {
		return
	}
	t.srvCounts[op].Add(n)
	t.ring.push(Event{
		Seq:     t.nextSeq(),
		Op:      srvOpRingNames[op],
		Class:   ClassServer,
		Matches: n,
	})
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
		ev.Seq = t.nextSeq()
	}
	ev.Class = ClassStage
	t.ring.push(ev)
}

// nextSeq allocates the next update sequence number (1-based).
func (t *Tracer) nextSeq() uint64 { return t.seq.Add(1) }

// Update records one completed update: the event enters the ring and the
// phase histograms observe its durations. If ev.Seq is zero a sequence
// number is assigned. Safe to call from concurrent engines.
func (t *Tracer) Update(ev Event) {
	if ev.Seq == 0 {
		ev.Seq = t.nextSeq()
	}
	t.hists[PhaseTotal].Observe(ev.Total)
	t.hists[PhaseADS].Observe(ev.ADS)
	t.hists[PhaseFind].Observe(ev.Find)
	t.ring.push(ev)
}

// SafeN records n updates that were proved label-safe without being looked
// at one by one (the (query, update) pairs core.MultiEngine's dispatch index
// skips): the phase histograms advance exactly as under n Update calls with
// zero durations, so their sample counts keep matching the engines'
// Stats.Updates, but no event enters the ring.
//
//paracosm:noalloc
func (t *Tracer) SafeN(n uint64) {
	t.hists[PhaseTotal].ObserveN(0, n)
	t.hists[PhaseADS].ObserveN(0, n)
	t.hists[PhaseFind].ObserveN(0, n)
}

// Ring returns the trace ring.
func (t *Tracer) Ring() *Ring { return t.ring }

// Hist returns the histogram for the given phase.
func (t *Tracer) Hist(p Phase) *Histogram { return t.hists[p] }

// writePrometheus emits the trace-drop counter, the server-event counts
// and every per-phase and per-stage histogram in Prometheus text
// exposition format (the tracer's part of the /metrics payload).
func (t *Tracer) writePrometheus(w io.Writer) error {
	if err := WriteSeries(w, []Series{Counter("paracosm_trace_dropped_total",
		"Trace events overwritten in the ring.", t.ring.Dropped())}); err != nil {
		return err
	}
	// Serving-layer lifecycle event counts (srv:* trace events). The full
	// fixed op set is always emitted, zeros included, so the series exist
	// before the first event and scrapers can alert on their absence.
	if err := WriteFamily(w, "paracosm_server_events_total", "counter",
		"Serving-layer lifecycle events recorded in the trace ring, by op."); err != nil {
		return err
	}
	for op := ServerOp(0); op < numServerOps; op++ {
		if _, err := fmt.Fprintf(w, "paracosm_server_events_total{op=%q} %d\n", op.String(), t.srvCounts[op].Load()); err != nil {
			return err
		}
	}
	for p := Phase(0); p < numPhases; p++ {
		if err := t.hists[p].writePrometheus(w, "paracosm_update_"+p.String()+"_seconds"); err != nil {
			return err
		}
	}
	return t.stages.writePrometheus(w)
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
