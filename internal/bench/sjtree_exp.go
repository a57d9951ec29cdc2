package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"paracosm/internal/algo/sjtree"
	"paracosm/internal/algo/symbi"
	"paracosm/internal/core"
	"paracosm/internal/csm"
	"paracosm/internal/dataset"
)

// runSJTree contrasts the join-based SJ-Tree with the backtracking Symbi:
// per-update latency against materialized table memory — the time/space
// trade-off Table 1 summarizes as O(|E(G)|^|E(Q)|) index cost. SJ-Tree is
// evaluated at a reduced scale because its offline materialization, not
// its incremental step, is what explodes.
func runSJTree(cfg Config, w io.Writer) error {
	cfg = cfg.Defaults()
	if cfg.Scale > 0.002 {
		cfg.Scale = 0.002 // keep join-table materialization tractable
	}
	d := cfg.data(dataset.AmazonSpec)
	s := cfg.stream(d)
	qs, err := cfg.queriesFor(d, 5)
	if err != nil {
		return err
	}
	tb := newTable(
		fmt.Sprintf("SJ-Tree (join-based) vs Symbi (backtracking), %s stand-in, size-5 queries, %d updates",
			d.Name, len(s)),
		"Algorithm", "offline build (ms)", "incremental (ms)", "per update (µs)", "table entries")

	type contender struct {
		name string
		mk   func() csm.Algorithm
	}
	for _, c := range []contender{
		{"SJ-Tree", func() csm.Algorithm { return sjtree.New() }},
		{"Symbi", func() csm.Algorithm { return symbi.New() }},
	} {
		var build, inc time.Duration
		var updates, tableEntries int
		for _, q := range qs {
			g := d.Graph.Clone()
			a := c.mk()
			eng := core.New(a, core.Threads(1), core.InterUpdate(false))
			t0 := time.Now()
			if err := eng.Init(g, q); err != nil {
				return err
			}
			build += time.Since(t0)
			ctx, cancel := context.WithTimeout(context.Background(), cfg.Budget)
			st, err := eng.Run(ctx, s)
			cancel()
			if err != nil && !errors.Is(err, csm.ErrDeadline) {
				return err
			}
			inc += st.TTotal
			updates += st.Updates
			if sj, ok := a.(*sjtree.SJTree); ok {
				for _, n := range sj.TableSizes() {
					tableEntries += n
				}
			}
		}
		perUpd := 0.0
		if updates > 0 {
			perUpd = float64(inc.Microseconds()) / float64(updates)
		}
		entries := interface{}(tableEntries)
		if c.name != "SJ-Tree" {
			entries = "n/a"
		}
		tb.addRow(c.name, float64(build.Microseconds())/1000, float64(inc.Microseconds())/1000, perUpd, entries)
	}
	tb.render(w)
	return nil
}
