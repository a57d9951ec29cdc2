package core

import (
	"context"
	"time"

	"paracosm/internal/obs"
	"paracosm/internal/stream"
)

// This file is Window(n) (DESIGN.md §15), a pre-pass in front of each
// driver's one per-update loop: cut the stream into windows of
// Config.Window updates, coalesce each window (exact insert/delete pairs
// annihilate, repeated touches of an edge fold to their net effect) and
// hand the survivors, in window order, to the loop that runs without
// windows. The coalescer reads no graph state, so a windowed run IS a
// per-update run over each window coalesced — deltas, their order and
// the final graph. Against the raw stream only the final graph and the
// NET totals compare: matches that appear and expire inside one window
// are never enumerated.

// winScratch is a driver's reusable windowing state.
type winScratch struct {
	coal *stream.Coalescer
	buf  stream.Stream // the survivors
	pos  []int         // MultiEngine: each survivor's position in the call's stream
}

func newWinScratch() *winScratch { return &winScratch{coal: stream.NewCoalescer()} }

// coalesce appends the survivors of window raw to w.buf and books the
// window: its counters into wc and, traced, its coalesce stage sample and
// "win" ring event. It returns each new survivor's index in raw, valid
// until the next call.
//
//paracosm:noalloc
func (w *winScratch) coalesce(raw stream.Stream, wc *WindowCounters, tr *obs.Tracer) []int32 {
	t := time.Now()
	var cst stream.CoalesceStats
	w.buf, cst = w.coal.Coalesce(w.buf, raw)
	cost := time.Since(t)
	wc.Windows++
	wc.Coalesced += cst.Removed()
	wc.Annihilated += cst.AnnihilatedPairs
	wc.FallbackSerial += cst.Out
	if cst.Out > 0 {
		wc.MaxGroup = 1
	}
	if tr != nil {
		tr.Stages().Observe(obs.StageCoalesce, cost)
		tr.Window(uint64(cst.Removed()), uint64(cst.AnnihilatedPairs))
		tr.Stage(obs.Event{Op: obs.OpWindow, Coalesce: cost, Total: cost})
	}
	return w.coal.Src()
}

// runWindow is runBatch for Window(n): coalesce the next window of s,
// classify the survivors in parallel (Stage A) and drain them ALL through
// Stage B in window order — a window defers nothing behind an unsafe
// update, its verdicts are re-validated instead. OnDelta fires as the
// drain goes. It returns how many raw updates were consumed: the whole
// window, or on error up to the failing survivor's position.
func (e *Engine) runWindow(ctx context.Context, s stream.Stream) (int, error) {
	if len(s) > e.cfg.Window {
		s = s[:e.cfg.Window]
	}
	if e.win == nil {
		e.win = newWinScratch()
	}
	w := e.win
	w.buf = w.buf[:0]
	var wc WindowCounters
	src := w.coalesce(s, &wc, e.cfg.Tracer)
	e.statsMu.Lock()
	e.stats.Window.Add(wc)
	e.statsMu.Unlock()

	verdicts := e.stageA(w.buf)
	for j, upd := range w.buf {
		if _, err := e.stageB(ctx, upd, verdicts[j]); err != nil {
			return int(src[j]) + 1, err
		}
	}
	return len(s), nil
}

// coalesceLocked is Window(n) for the shared driver: it coalesces the
// call's stream s window by window into one survivor stream and returns
// it with each survivor's position in s, for runSharedLocked's lockstep
// loop to run as it runs any stream. Traced, a raw update coalesced away
// still observes the five per-update stages here — its real queue waits
// from bt/idx (as in runSharedLocked), zero driver durations — so stage
// counts keep matching the applied-update count the caller reports.
//
//paracosm:noalloc
func (m *MultiEngine) coalesceLocked(s stream.Stream, bt *BatchTimes, idx []int) (stream.Stream, []int) {
	w := m.win
	w.buf, w.pos = w.buf[:0], w.pos[:0]
	tr := m.cfg.Tracer
	for off := 0; off < len(s); off += m.cfg.Window {
		raw := s[off:]
		if len(raw) > m.cfg.Window {
			raw = raw[:m.cfg.Window]
		}
		src := w.coalesce(raw, &m.winStats, tr)
		for _, r := range src {
			w.pos = append(w.pos, off+int(r))
		}
		if tr == nil {
			continue
		}
		// A retouch leaves two survivors at one position; the second stands
		// for a later update of the window, so the counts stay one per raw.
		surplus := 0
		for i, upd := range raw {
			n := 0
			for ; len(src) > 0 && int(src[0]) == i; src = src[1:] {
				n++
			}
			if n > 0 {
				surplus += n - 1
				continue
			}
			if surplus > 0 {
				surplus--
				continue
			}
			orig := off + i
			if idx != nil {
				orig = idx[orig]
			}
			wait, assemble := bt.stageWaits(orig)
			observeUpdateStages(tr, upd, wait, assemble, 0, 0, 0)
		}
	}
	return w.buf, w.pos
}

// WindowCounters returns the driver-level Window(n) counters: one tally
// per shared-graph window, counted once per update rather than per query.
// Zero-valued unless Config.Window > 1.
func (m *MultiEngine) WindowCounters() WindowCounters {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.winStats
}
