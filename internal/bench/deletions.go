package bench

import (
	"fmt"
	"io"
	"time"

	"paracosm/internal/algo"
	"paracosm/internal/dataset"
	"paracosm/internal/stream"
)

// runDeletions exercises the deletion path (§2.2: negative matches are
// enumerated before the edge is removed) with a sliding-window-style
// stream: every held-out edge is inserted and later deleted again. Since
// the graph ends exactly where it started, every appearing match must also
// expire — the experiment asserts the +/- conservation invariant and
// reports the relative cost of insertions vs deletions.
func runDeletions(cfg Config, w io.Writer) error {
	cfg = cfg.Defaults()
	d := cfg.data(dataset.AmazonSpec)
	events := windowStream(d, cfg.StreamCap)
	qs, err := cfg.queriesFor(d, 6)
	if err != nil {
		return err
	}
	tb := newTable(
		fmt.Sprintf("Deletion handling: insert+expire window (%s stand-in, %d events)", d.Name, len(events)),
		"Algorithm", "+matches", "-matches", "conserved", "time (ms)")
	for _, e := range algo.Registry() {
		var pos, neg uint64
		var tot time.Duration
		completed := 0
		for _, q := range qs {
			r := cfg.runOne(e, d, q, events, sequentialOpts()...)
			if !r.Success {
				// Conservation only holds for fully processed windows.
				continue
			}
			completed++
			pos += r.Stats.Positive
			neg += r.Stats.Negative
			tot += r.Stats.TTotal
		}
		if completed == 0 {
			tb.addRow(e.Name, "TO", "TO", "n/a", "TO")
			continue
		}
		conserved := "YES"
		if pos != neg {
			conserved = fmt.Sprintf("NO (+%d vs -%d)", pos, neg)
		}
		tb.addRow(e.Name, pos, neg, conserved, float64(tot.Microseconds())/1000)
	}
	tb.render(w)
	return nil
}

// windowStream builds "insert the first cap held-out edges, then delete
// them again in reverse order" — a closed window returning the graph to
// its initial state.
func windowStream(d *dataset.Dataset, cap int) stream.Stream {
	ins := d.Stream
	if len(ins) > cap {
		ins = ins[:cap]
	}
	out := append(stream.Stream(nil), ins...)
	for i := len(ins) - 1; i >= 0; i-- {
		if del, err := ins[i].Invert(); err == nil {
			out = append(out, del)
		}
	}
	return out
}
