package bench

import (
	"fmt"
	"io"
	"time"

	"paracosm/internal/algo"
	"paracosm/internal/algo/incisomatch"
	"paracosm/internal/core"
	"paracosm/internal/csm"
	"paracosm/internal/dataset"
)

// Ablation experiments for the design choices DESIGN.md calls out: the
// value of edge-rooted incremental search (vs IncIsoMatch recomputation)
// and the inner-update task granularity (SPLIT_DEPTH / escalation budget).

func init() {
	// Ablations are appended to the registry by being listed in All();
	// nothing to do here — the function exists to document intent.
}

// ablations returns the ablation experiments (registered in All).
func ablations() []Experiment {
	return []Experiment{
		{ID: "recompute", Title: "Ablation: incremental search vs IncIsoMatch recomputation", Run: runRecompute},
		{ID: "ablation-split", Title: "Ablation: task granularity (SPLIT_DEPTH, escalation budget)", Run: runAblationSplit},
	}
}

// runRecompute quantifies the motivation for CSM: edge-rooted incremental
// algorithms vs the IncIsoMatch-style recomputation baseline, in search
// nodes and time per update.
func runRecompute(cfg Config, w io.Writer) error {
	cfg = cfg.Defaults()
	d := cfg.data(dataset.AmazonSpec)
	s := cfg.stream(d)
	qs, err := cfg.queriesFor(d, 6)
	if err != nil {
		return err
	}
	tb := newTable(
		fmt.Sprintf("Ablation: recomputation vs incremental (%s stand-in, query size 6, %d updates)", d.Name, len(s)),
		"Algorithm", "total time (ms)", "search nodes", "nodes/update")

	type contender struct {
		name string
		mk   func() csm.Algorithm
	}
	contenders := []contender{
		{"IncIsoMatch", func() csm.Algorithm { return incisomatch.New() }},
	}
	for _, e := range algo.Registry() {
		e := e
		contenders = append(contenders, contender{e.Name, e.New})
	}
	for _, c := range contenders {
		var tot time.Duration
		var nodes uint64
		var updates int
		for _, q := range qs {
			entry := algo.Entry{Name: c.name, New: c.mk}
			r := cfg.runOne(entry, d, q, s, sequentialOpts()...)
			tot += r.Stats.TTotal
			nodes += r.Stats.Nodes
			updates += r.Stats.Updates
		}
		perUpd := 0.0
		if updates > 0 {
			perUpd = float64(nodes) / float64(updates)
		}
		tb.addRow(c.name, float64(tot.Microseconds())/1000, nodes, perUpd)
	}
	tb.render(w)
	return nil
}

// runAblationSplit sweeps the inner-update task granularity: SPLIT_DEPTH
// (how deep subtrees may still be re-split) and the escalation budget (how
// many sequential nodes before the parallel phase engages).
func runAblationSplit(cfg Config, w io.Writer) error {
	cfg = cfg.Defaults()
	d := cfg.data(dataset.LiveJournalSpec)
	s := cfg.stream(d)
	e, err := algo.ByName("GraphFlow")
	if err != nil {
		return err
	}
	qs, err := cfg.queriesFor(d, 8)
	if err != nil {
		return err
	}
	run := func(opts ...core.Option) time.Duration {
		var tot time.Duration
		for _, q := range qs {
			r := cfg.runOne(e, d, q, s, opts...)
			tot += r.Stats.TFind
		}
		return tot
	}
	base := run(sequentialOpts()...)

	tb := newTable(
		fmt.Sprintf("Ablation: task granularity (%s stand-in, GraphFlow, size-8 queries, %d threads; sequential find = %v)",
			d.Name, cfg.Threads, base.Round(time.Millisecond)),
		"SPLIT_DEPTH", "escalate", "find time (ms)", "speedup")
	for _, sd := range []int{3, 4, 6, 0 /* auto */} {
		for _, esc := range []int{512, 4096, 32768} {
			t := run(core.Threads(cfg.Threads), core.InterUpdate(false), core.Simulate(cfg.Simulate),
				core.SplitDepth(sd), core.EscalateNodes(esc))
			sdLabel := fmt.Sprintf("%d", sd)
			if sd == 0 {
				sdLabel = "auto"
			}
			sp := "inf"
			if t > 0 {
				sp = fmt.Sprintf("%.2f", float64(base)/float64(t))
			}
			tb.addRow(sdLabel, esc, float64(t.Microseconds())/1000, sp)
		}
	}
	tb.render(w)
	return nil
}
