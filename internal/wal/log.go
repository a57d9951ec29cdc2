package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"paracosm/internal/stream"
)

// SyncPolicy selects when appended records are fsynced. Independent of
// the policy, Append always waits for the records to be written to the
// OS (write(2)) before returning — log-before-apply, which makes the
// log complete against process death (kill -9: the page cache survives).
// fsync governs the stronger power-loss/kernel-crash durability.
type SyncPolicy int

const (
	// SyncInterval (the default) batches fsync on a group-commit cadence:
	// the flusher goroutine syncs at most once per Options.Interval, so
	// many appends share one disk flush.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs before every Append returns (each append may
	// still cover a whole group of records queued behind it).
	SyncAlways
	// SyncOff never fsyncs automatically (Sync still forces one).
	SyncOff
)

// String returns the -fsync flag spelling of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncOff:
		return "off"
	}
	return "interval"
}

// ParsePolicy parses the -fsync flag value.
func ParsePolicy(s string) (SyncPolicy, error) {
	switch s {
	case "interval", "":
		return SyncInterval, nil
	case "always":
		return SyncAlways, nil
	case "off":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want interval, always or off)", s)
}

// Options configures a Log.
type Options struct {
	// Policy is the fsync policy (SyncInterval when zero).
	Policy SyncPolicy
	// Interval is the group-commit fsync cadence under SyncInterval
	// (50ms when zero).
	Interval time.Duration

	// holdWrite, when > 0, holds the flusher's first write(2) until that
	// many records are queued or the log closes: a package-internal seam
	// that makes one group commit happen by construction, whatever the
	// scheduler does with the appenders.
	holdWrite int
}

func (o *Options) normalize() {
	if o.Interval <= 0 {
		o.Interval = 50 * time.Millisecond
	}
}

const (
	segSuffix  = ".wal"
	snapSuffix = ".pcsnap"
)

// segName formats the segment filename for its first LSN; the fixed-width
// decimal keeps lexicographic and numeric order identical.
func segName(first uint64) string {
	return fmt.Sprintf("%020d%s", first, segSuffix)
}

// segment is one on-disk log file, named by the LSN of its first record
// (so an empty active segment still pins the next LSN across restarts).
type segment struct {
	first uint64
	path  string
}

// Metrics is a counter snapshot for the paracosm_wal_* series.
type Metrics struct {
	Records  uint64 // records appended since open
	Bytes    uint64 // encoded bytes appended since open
	Flushes  uint64 // write(2) calls by the flusher
	Fsyncs   uint64 // fsync calls
	LastLSN  uint64 // highest assigned LSN
	Segments int    // live segment files
}

// Log is an append-only segmented write-ahead log. Appends from any
// goroutine are serialized into a pending buffer and written by one
// dedicated flusher goroutine (joined by Close), so concurrent appenders
// group-commit: one write(2) — and under the sync policies one fsync —
// covers every record queued while the previous flush was in progress.
type Log struct {
	dir  string
	opts Options

	mu      sync.Mutex
	cond    *sync.Cond // paired with mu; broadcast when written/synced advance
	pending []byte     // guarded by mu — encoded records awaiting write(2)
	nextLSN uint64     // guarded by mu — next LSN to assign
	written uint64     // guarded by mu — highest LSN written to the OS
	synced  uint64     // guarded by mu — highest LSN covered by an fsync
	syncReq uint64     // guarded by mu — explicit Sync barrier target
	closed  bool       // guarded by mu
	err     error      // guarded by mu — first terminal I/O error (log is dead after)
	f       *os.File   // guarded by mu — the active segment (all I/O runs under mu)
	segs    []segment  // guarded by mu — all segments, ascending by first LSN

	wake chan struct{} // 1-buffered flusher doorbell
	done chan struct{} // closed when flushLoop exits

	records atomic.Uint64
	bytes   atomic.Uint64
	flushes atomic.Uint64
	fsyncs  atomic.Uint64
}

// Open opens (or creates) the log in dir, validates the existing
// segments, truncates a torn tail off the last one, and starts the
// flusher goroutine. The returned log appends after the last valid
// record. Call Replay before the first Append to read the existing
// records back.
func Open(dir string, opts Options) (*Log, error) {
	opts.normalize()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{
		dir:  dir,
		opts: opts,
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	l.cond = sync.NewCond(&l.mu)
	if err := l.recoverSegments(segs); err != nil {
		return nil, err
	}
	go l.flushLoop()
	return l, nil
}

// recoverSegments validates the on-disk segments, truncates a torn tail
// off the last one, and seats the LSN cursors. Runs under mu only to
// honor the guarded-field contract — the flusher has not started yet.
func (l *Log) recoverSegments(segs []segment) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.segs = segs
	if len(l.segs) == 0 {
		l.segs = []segment{{first: 1, path: filepath.Join(l.dir, segName(1))}}
	}
	// Validate every segment: interior segments must be fully intact (a
	// crash only ever tears the file being appended), the last one may
	// carry a torn tail, which is truncated to the longest valid prefix.
	next := l.segs[0].first
	for i, seg := range l.segs {
		buf, err := os.ReadFile(seg.path)
		if err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("wal: %w", err)
		}
		validLen, last, tailErr, _ := scanRecords(buf, seg.first, nil)
		if tailErr != nil {
			if i != len(l.segs)-1 {
				return fmt.Errorf("wal: segment %s corrupt mid-log: %w", filepath.Base(seg.path), tailErr)
			}
			if err := os.Truncate(seg.path, int64(validLen)); err != nil {
				return fmt.Errorf("wal: truncate torn tail: %w", err)
			}
		}
		if len(buf[:validLen]) > 0 {
			next = last + 1
		} else {
			next = seg.first
		}
	}
	l.nextLSN = next
	l.written = next - 1
	l.synced = next - 1
	active := l.segs[len(l.segs)-1]
	f, err := os.OpenFile(active.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	return nil
}

// listSegments returns dir's segment files ascending by first LSN.
func listSegments(dir string) ([]segment, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segment
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("wal: stray segment file %q", name)
		}
		segs = append(segs, segment{first: first, path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

// Append assigns consecutive LSNs to recs (in place), queues them for
// the flusher and blocks until they are written to the OS — and, under
// SyncAlways, fsynced. Returns the last assigned LSN.
func (l *Log) Append(recs []Record) (last uint64, err error) {
	if len(recs) == 0 {
		return l.LastLSN(), nil
	}
	for _, r := range recs {
		if bytes.IndexByte(r.Payload, '\n') >= 0 {
			return 0, fmt.Errorf("wal: payload contains newline")
		}
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, fmt.Errorf("wal: log closed")
	}
	nbytes := len(l.pending)
	for i := range recs {
		recs[i].LSN = l.nextLSN
		l.nextLSN++
		l.pending = appendRecord(l.pending, recs[i])
	}
	last = l.nextLSN - 1
	l.records.Add(uint64(len(recs)))
	l.bytes.Add(uint64(len(l.pending) - nbytes))
	l.mu.Unlock()
	l.kick()
	return last, l.waitDurable(last)
}

// AppendUpdates appends one KindUpdate record per update, encoding the
// stream text codec directly into the pending buffer (no per-record
// payload allocation — this is the serving hot path's durability point).
// Same blocking contract as Append.
func (l *Log) AppendUpdates(s stream.Stream) (last uint64, err error) {
	if len(s) == 0 {
		return l.LastLSN(), nil
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, fmt.Errorf("wal: log closed")
	}
	nbytes := len(l.pending)
	var payload [64]byte
	for _, u := range s {
		p := appendUpdate(payload[:0], u)
		l.pending = appendRecord(l.pending, Record{LSN: l.nextLSN, Kind: KindUpdate, Payload: p})
		l.nextLSN++
	}
	last = l.nextLSN - 1
	l.records.Add(uint64(len(s)))
	l.bytes.Add(uint64(len(l.pending) - nbytes))
	l.mu.Unlock()
	l.kick()
	return last, l.waitDurable(last)
}

// appendUpdate encodes u in the stream text codec onto buf (the same
// lines stream.Stream.Write emits, without an allocation per update).
func appendUpdate(buf []byte, u stream.Update) []byte {
	switch u.Op {
	case stream.AddEdge:
		buf = append(buf, '+', 'e', ' ')
		buf = strconv.AppendUint(buf, uint64(u.U), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, uint64(u.V), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, uint64(u.ELabel), 10)
	case stream.DeleteEdge:
		buf = append(buf, '-', 'e', ' ')
		buf = strconv.AppendUint(buf, uint64(u.U), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, uint64(u.V), 10)
	case stream.AddVertex:
		buf = append(buf, '+', 'v', ' ')
		buf = strconv.AppendUint(buf, uint64(u.VLabel), 10)
	case stream.DeleteVertex:
		buf = append(buf, '-', 'v', ' ')
		buf = strconv.AppendUint(buf, uint64(u.U), 10)
	}
	return buf
}

// waitDurable blocks until target is written (and fsynced under
// SyncAlways) or the log hits a terminal error.
func (l *Log) waitDurable(target uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.err == nil && l.written < target {
		l.cond.Wait()
	}
	if l.opts.Policy == SyncAlways {
		for l.err == nil && l.synced < target {
			l.cond.Wait()
		}
	}
	return l.err
}

// kick rings the flusher doorbell without blocking (capacity-1 channel:
// a pending wake already covers this work).
func (l *Log) kick() {
	//lint:ignore chandrop best-effort doorbell: a buffered wake already covers this flush
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// Sync forces an fsync covering every record appended so far and blocks
// until it completes — the flush-barrier durability point under
// SyncInterval (explicit Sync outranks the policy, including SyncOff).
func (l *Log) Sync() error {
	l.mu.Lock()
	target := l.nextLSN - 1
	if l.syncReq < target {
		l.syncReq = target
	}
	l.mu.Unlock()
	l.kick()
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.err == nil && l.synced < target {
		l.cond.Wait()
	}
	return l.err
}

// flushLoop is the dedicated flusher goroutine: it drains the pending
// buffer with one write(2) per wakeup (group commit) and applies the
// fsync policy. It exits when Close has been called and the buffer is
// drained; Close joins it through the done channel.
func (l *Log) flushLoop() {
	defer close(l.done)
	var tick <-chan time.Time
	if l.opts.Policy == SyncInterval {
		t := time.NewTicker(l.opts.Interval)
		defer t.Stop()
		tick = t.C
	}
	for {
		syncDue := false
		select {
		case <-l.wake:
		case <-tick:
			syncDue = true
		}
		if l.flushOnce(syncDue) {
			return
		}
	}
}

// flushOnce performs one flusher iteration under the lock; reports true
// when the log is closed and fully drained.
func (l *Log) flushOnce(syncDue bool) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.opts.holdWrite > 0 && l.flushes.Load() == 0 && !l.closed &&
		l.nextLSN-1-l.written < uint64(l.opts.holdWrite) {
		// Every queued append rings the doorbell again.
		return false
	}
	if len(l.pending) > 0 && l.err == nil {
		if _, err := l.f.Write(l.pending); err != nil {
			l.err = fmt.Errorf("wal: write: %w", err)
		} else {
			l.written = l.nextLSN - 1
			l.flushes.Add(1)
		}
		l.pending = l.pending[:0]
	}
	needSync := l.err == nil && l.synced < l.written &&
		(l.opts.Policy == SyncAlways || syncDue || l.syncReq > l.synced)
	if needSync {
		if err := l.f.Sync(); err != nil {
			l.err = fmt.Errorf("wal: fsync: %w", err)
		} else {
			l.synced = l.written
			l.fsyncs.Add(1)
		}
	}
	l.cond.Broadcast()
	return l.closed && len(l.pending) == 0
}

// Replay streams every record with LSN > after to fn, in order. Must be
// called before the first Append (recovery runs before serving), while
// the segment files are quiescent. fn's error aborts the scan.
func (l *Log) Replay(after uint64, fn func(Record) error) error {
	l.mu.Lock()
	segs := append([]segment(nil), l.segs...)
	l.mu.Unlock()
	for _, seg := range segs {
		buf, err := os.ReadFile(seg.path)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return fmt.Errorf("wal: %w", err)
		}
		_, _, tailErr, err := scanRecords(buf, seg.first, func(r Record) error {
			if r.LSN <= after {
				return nil
			}
			return fn(r)
		})
		if err != nil {
			return err
		}
		// tailErr here means the tail was already truncated by Open and
		// nothing has been appended since — impossible unless the file
		// changed under us, which the Replay-before-Append contract rules
		// out. Surface it rather than silently under-replaying.
		if tailErr != nil {
			return fmt.Errorf("wal: segment %s changed during replay: %w", filepath.Base(seg.path), tailErr)
		}
	}
	return nil
}

// LastLSN returns the highest assigned LSN (0 when the log is empty).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// Rotate seals the active segment (draining pending writes and syncing
// it) and opens a new one starting at the next LSN. Callers serialize
// Rotate against their own Appends; the snapshot path runs it before
// capturing the snapshot LSN so the sealed segments hold exactly the
// records the snapshot covers.
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log closed")
	}
	for l.err == nil && l.written < l.nextLSN-1 {
		l.cond.Wait()
	}
	if l.err != nil {
		return l.err
	}
	if l.synced < l.written && l.opts.Policy != SyncOff {
		if err := l.f.Sync(); err != nil {
			l.err = fmt.Errorf("wal: fsync: %w", err)
			return l.err
		}
		l.synced = l.written
		l.fsyncs.Add(1)
	}
	if l.segs[len(l.segs)-1].first == l.nextLSN {
		// The active segment is empty — it already starts at the next LSN,
		// so rotating would just reopen the same file. Nothing to seal.
		return nil
	}
	seg := segment{first: l.nextLSN, path: filepath.Join(l.dir, segName(l.nextLSN))}
	f, err := os.OpenFile(seg.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := l.f.Close(); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.segs = append(l.segs, seg)
	return nil
}

// RemoveObsolete deletes sealed segments fully covered by a snapshot at
// snapLSN: a segment is removable when it is not the active one and the
// following segment starts at or below snapLSN+1 (so no record above
// snapLSN is lost). Called after a snapshot has been durably written.
func (l *Log) RemoveObsolete(snapLSN uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	keep := l.segs[:0]
	for i, seg := range l.segs {
		if i < len(l.segs)-1 && l.segs[i+1].first <= snapLSN+1 {
			if err := os.Remove(seg.path); err != nil && !os.IsNotExist(err) {
				// Keep it in the list; a leftover segment is re-candidates
				// on the next snapshot and harmless to recovery.
				keep = append(keep, seg)
				continue
			}
			continue
		}
		keep = append(keep, seg)
	}
	l.segs = keep
	return nil
}

// Close drains and joins the flusher goroutine, issues a final fsync
// (unless the policy is SyncOff) and closes the active segment. Safe to
// call more than once.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.done
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.err
	}
	l.closed = true
	l.mu.Unlock()
	l.kick()
	<-l.done
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil && l.synced < l.written && l.opts.Policy != SyncOff {
		if err := l.f.Sync(); err != nil {
			l.err = fmt.Errorf("wal: fsync: %w", err)
		} else {
			l.synced = l.written
			l.fsyncs.Add(1)
		}
	}
	if err := l.f.Close(); err != nil && l.err == nil {
		l.err = fmt.Errorf("wal: %w", err)
	}
	return l.err
}

// Metrics returns a counter snapshot for the paracosm_wal_* series.
func (l *Log) Metrics() Metrics {
	l.mu.Lock()
	lsn := l.nextLSN - 1
	nsegs := len(l.segs)
	l.mu.Unlock()
	return Metrics{
		Records:  l.records.Load(),
		Bytes:    l.bytes.Load(),
		Flushes:  l.flushes.Load(),
		Fsyncs:   l.fsyncs.Load(),
		LastLSN:  lsn,
		Segments: nsegs,
	}
}
