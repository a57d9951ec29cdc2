package core

import (
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
		tr.Stage(obs.Event{Op: obs.OpWindow, Coalesce: cost, Total: cost})
	}
	return w.coal.Src()
}

// coalesce is Window(n) for the single engine: it books window raw into
// the engine's Stats and returns its survivors, for Run's loop, with each
// one's index in raw; both are valid until the next call.
func (e *Engine) coalesce(raw stream.Stream) (stream.Stream, []int32) {
	w := e.win
	w.buf = w.buf[:0]
	var wc WindowCounters
	src := w.coalesce(raw, &wc, e.cfg.Tracer)
	e.statsMu.Lock()
	e.stats.Window.add(wc)
	e.statsMu.Unlock()
	return w.buf, src
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
