package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Event is one per-update trace record. The engine fills it on the
// completion of every processed update (safe or unsafe); all fields are
// plain values so appending an Event to the ring never allocates.
//
// Durations marshal as integer nanoseconds (hence the _ns JSON names),
// which keeps the JSONL trace trivially parseable by jq/awk.
type Event struct {
	// Seq is the tracer-assigned update sequence number (1-based).
	Seq uint64 `json:"seq"`
	// Op is the stream mnemonic: "+e", "-e", "+v", "-v".
	Op string `json:"op"`
	// U, V are the update's endpoints (V is meaningless for vertex ops).
	U uint32 `json:"u"`
	V uint32 `json:"v"`
	// Class records the batch executor's verdict: "unsafe",
	// "safe:label", "safe:degree", "safe:ads", "vertex", or "direct"
	// when the update bypassed classification (InterUpdate disabled).
	Class string `json:"class"`
	// Reclassified marks an update that was safe at stage-A
	// classification but unsafe at re-validation time.
	Reclassified bool `json:"reclassified,omitempty"`
	// Escalated marks updates whose search escalated to the parallel
	// phase of the inner-update executor.
	Escalated bool `json:"escalated,omitempty"`
	// Timeout marks updates cut off by the context deadline (the Delta
	// is a partial lower bound, see the ProcessUpdate contract).
	Timeout bool `json:"timeout,omitempty"`
	// Nodes is the number of search-tree nodes visited.
	Nodes uint64 `json:"nodes"`
	// Resplits counts subtrees re-split into pool tasks for this update.
	Resplits uint64 `json:"resplits,omitempty"`
	// Matches is the incremental result size |ΔM| (positive + negative).
	Matches uint64 `json:"matches"`
	// ADS, Find and Total are the per-phase durations.
	ADS   time.Duration `json:"ads_ns"`
	Find  time.Duration `json:"find_ns"`
	Total time.Duration `json:"total_ns"`

	// Pipeline stage durations, set only on ClassStage events (one per
	// applied update, emitted by the lockstep driver; see obs.Stage).
	// Zero and omitted on per-update engine and server events.
	IngestWait time.Duration `json:"stage_ingest_wait_ns,omitempty"`
	Assemble   time.Duration `json:"stage_assemble_ns,omitempty"`
	PreApply   time.Duration `json:"stage_pre_apply_ns,omitempty"`
	Commit     time.Duration `json:"stage_commit_ns,omitempty"`
	PostApply  time.Duration `json:"stage_post_apply_ns,omitempty"`

	// Coalesce is the window coalescing pass, set only on per-window
	// ClassStage events (Op "win", one per window of Window(n)).
	Coalesce time.Duration `json:"stage_coalesce_ns,omitempty"`
}

// OpWindow is the Op mnemonic of per-window stage events, distinguishing
// them from the per-update stage events inside Class "stage".
const OpWindow = "win"

// Ring is a fixed-capacity buffer of the most recent Events with
// overwrite-and-count-drops semantics: appends never block and never
// allocate once the ring is built; when full, the oldest event is
// overwritten and the drop counter incremented. All methods are safe for
// concurrent use.
type Ring struct {
	mu    sync.Mutex
	buf   []Event // guarded by mu — fixed length, allocated once
	total uint64  // guarded by mu — events ever appended
}

// NewRing returns a ring holding the last capacity events. Capacities
// below 1 are clamped to 1.
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Append records ev, overwriting the oldest event when full.
func (r *Ring) Append(ev Event) {
	r.mu.Lock()
	r.buf[r.total%uint64(len(r.buf))] = ev
	r.total++
	r.mu.Unlock()
}

// Len returns the number of events currently held (≤ Cap).
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total < uint64(len(r.buf)) {
		return int(r.total)
	}
	return len(r.buf)
}

// Cap returns the ring capacity. The buffer length is fixed after NewRing,
// but taking the lock keeps the guarded-access invariant checkable.
func (r *Ring) Cap() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Total returns the number of events ever appended.
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped returns how many events have been overwritten.
func (r *Ring) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total <= uint64(len(r.buf)) {
		return 0
	}
	return r.total - uint64(len(r.buf))
}

// Snapshot returns a copy of the retained events, oldest first.
func (r *Ring) Snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.buf))
	if r.total < n {
		return append([]Event(nil), r.buf[:r.total]...)
	}
	start := r.total % n
	out := make([]Event, 0, n)
	out = append(out, r.buf[start:]...)
	out = append(out, r.buf[:start]...)
	return out
}

// WriteJSONL writes the retained events oldest-first, one JSON object
// per line. It snapshots the ring first, so concurrent appends during
// the write are safe (and simply not included).
func (r *Ring) WriteJSONL(w io.Writer) error {
	return writeEventsJSONL(w, r.Snapshot())
}

// writeEventsJSONL writes evs as one JSON object per line.
func writeEventsJSONL(w io.Writer, evs []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range evs {
		if err := enc.Encode(&evs[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSONL trace (as produced by WriteJSONL or the
// /trace endpoint) back into events. Blank lines are skipped; the first
// malformed line aborts with an error.
func ReadJSONL(rd io.Reader) ([]Event, error) {
	var out []Event
	dec := json.NewDecoder(rd)
	for {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, err
		}
		out = append(out, ev)
	}
}
