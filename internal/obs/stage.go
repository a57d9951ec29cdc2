package obs

import (
	"fmt"
	"io"
	"time"
)

// This file is the pipeline tracing substrate (DESIGN.md §14): a fixed
// set of serving-pipeline stages, one latency histogram per stage, and a
// zero-allocation clock for capturing stage boundaries. The lockstep
// driver (core.MultiEngine) observes the per-update stages; the serving
// layer (internal/server) observes the per-delta ones. Per-update stage
// sample counts reconcile with the applied-update count by construction:
// every stage is observed exactly once per update on the same code path
// that counts the update applied.

// Stage identifies one fixed stage of the serving pipeline, from wire
// ingest to subscriber delivery.
type Stage int

const (
	// StageIngestWait is time an update spent queued between admission to
	// the ingestion queue and pickup by the ingestion loop.
	StageIngestWait Stage = iota
	// StageAssemble is time between pickup and batch submission (dwell in
	// the batch being opportunistically assembled).
	StageAssemble
	// StagePreApply is the lockstep driver's read-only pre-apply fan-out
	// (classification + expiring-match enumeration across all queries).
	StagePreApply
	// StageCommit is the single shared-graph mutation.
	StageCommit
	// StagePostApply is the post-apply fan-out (ADS maintenance +
	// new-match enumeration across all queries).
	StagePostApply
	// StageFanout is the delta fan-out to subscriber queues (per nonzero
	// delta, not per update).
	StageFanout
	// StageSubQueue is a delta frame's dwell in a subscriber's outbound
	// queue (sampled per delivered delta frame).
	StageSubQueue
	// StageWire is the wire serialization + write of a delta frame
	// (sampled per delivered delta frame).
	StageWire
	// StageCoalesce is Window(n)'s coalescing pass (one observation per
	// window, not per update).
	StageCoalesce
	// StageWALAppend is the write-ahead-log append + durability wait for
	// one validated batch (per batch, WAL mode only).
	StageWALAppend
	// StageSnapshot is one durability snapshot write: log rotation plus
	// the atomic state-file write (per snapshot, WAL mode only).
	StageSnapshot
	numStages
)

// stageNames are the metric-friendly stage names, indexed by Stage.
var stageNames = [numStages]string{
	"ingest_wait", "assemble", "pre_apply", "commit", "post_apply",
	"fanout", "sub_queue", "wire_write",
	"coalesce", "wal_append", "snapshot",
}

// String returns the stage's metric-friendly name.
func (s Stage) String() string {
	if s >= 0 && s < numStages {
		return stageNames[s]
	}
	return fmt.Sprintf("Stage(%d)", int(s))
}

// NumStages is the number of pipeline stages (for iteration in exports).
const NumStages = int(numStages)

// UpdateStages lists the per-update stages: the ones observed exactly
// once per applied update, whose sample counts therefore reconcile with
// the applied-update count by construction. The remaining stages
// (fanout, sub_queue, wire_write) are per-delta and sampled.
var UpdateStages = [...]Stage{
	StageIngestWait, StageAssemble, StagePreApply, StageCommit, StagePostApply,
}

// StageSet is one latency histogram per pipeline stage, all fixed-memory
// and safe for concurrent use. The zero value is not ready; use
// newStageSet (a Tracer owns one, see Tracer.Stages).
type StageSet struct {
	hists [numStages]*Histogram
}

// newStageSet returns a stage set with empty histograms.
func newStageSet() *StageSet {
	s := &StageSet{}
	for i := range s.hists {
		s.hists[i] = NewHistogram()
	}
	return s
}

// Observe records one duration for the given stage. Out-of-range stages
// are ignored (never panic on the observation path).
//
//paracosm:noalloc
func (s *StageSet) Observe(st Stage, d time.Duration) {
	if st < 0 || st >= numStages {
		return
	}
	s.hists[st].Observe(d)
}

// Hist returns the histogram for one stage (nil when out of range).
//
//lint:ignore deadexport test oracle: production reads the tracer over /metrics and /trace, the core and server tests read what the engines recorded in process
func (s *StageSet) Hist(st Stage) *Histogram {
	if st < 0 || st >= numStages {
		return nil
	}
	return s.hists[st]
}

// writePrometheus emits every stage histogram in Prometheus text
// exposition format as paracosm_stage_<name>_seconds.
func (s *StageSet) writePrometheus(w io.Writer) error {
	for st := Stage(0); st < numStages; st++ {
		name := "paracosm_stage_" + stageNames[st] + "_seconds"
		if err := s.hists[st].writePrometheus(w, name); err != nil {
			return err
		}
	}
	return nil
}

// StageClock captures monotonic timestamps at stage boundaries. It is a
// plain value (keep it on the stack): Start once, then Mark at each
// boundary — the elapsed time since the previous mark is observed into
// the set and returned. The observation path performs no allocations.
type StageClock struct {
	last time.Time
}

// Start begins timing: the next Mark measures from here.
//
//paracosm:noalloc
func (c *StageClock) Start() { c.last = time.Now() }

// Mark observes the time since the previous Start/Mark/Lap into set under
// st and advances the clock to now.
//
//paracosm:noalloc
func (c *StageClock) Mark(set *StageSet, st Stage) time.Duration {
	d := c.Lap()
	set.Observe(st, d)
	return d
}

// Lap returns the time since the previous Start/Mark/Lap and advances the
// clock without observing — for callers that must defer observation until
// a later boundary decides the sample counts (e.g. the lockstep driver
// observes all per-update stages together only once the update has fully
// applied, so the stage counts reconcile by construction).
//
//paracosm:noalloc
func (c *StageClock) Lap() time.Duration {
	now := time.Now()
	d := now.Sub(c.last)
	c.last = now
	return d
}
