package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"paracosm/internal/algo"
	"paracosm/internal/core"
	"paracosm/internal/csm"
	"paracosm/internal/dataset"
	"paracosm/internal/query"
)

// Second batch of ablations: matching-order strategy, and a comparison
// with Mnemonic-style coarse-grained (one-update-one-thread) parallelism.

func ablations2() []Experiment {
	return []Experiment{
		{ID: "ablation-order", Title: "Ablation: matching-order strategy", Run: runAblationOrder},
		{ID: "mnemonic", Title: "Comparison: ParaCOSM vs Mnemonic-style coarse-grained parallelism", Run: runMnemonic},
		{ID: "deletions", Title: "Deletion handling: insert+expire window conservation", Run: runDeletions},
		{ID: "sjtree", Title: "Comparison: join-based SJ-Tree vs backtracking (time/space trade-off)", Run: runSJTree},
	}
}

// runAblationOrder compares matching-order strategies (backward-degree
// greedy vs degree-only vs random) by search-tree size on identical
// workloads.
func runAblationOrder(cfg Config, w io.Writer) error {
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
	tb := newTable(
		fmt.Sprintf("Ablation: matching-order strategy (%s stand-in, GraphFlow, size-8 queries)", d.Name),
		"strategy", "search nodes", "time (ms)", "vs backdeg")
	var baseNodes uint64
	for _, strat := range []query.OrderStrategy{query.OrderBackDeg, query.OrderDegree, query.OrderRandom} {
		var nodes uint64
		var tot time.Duration
		for _, q := range qs {
			q.BuildOrdersWithStrategy(strat, cfg.Seed)
			r := cfg.runOne(e, d, q, s, sequentialOpts()...)
			nodes += r.Stats.Nodes
			tot += r.Stats.TTotal
			q.BuildOrders() // restore the default for other experiments
		}
		if strat == query.OrderBackDeg {
			baseNodes = nodes
		}
		rel := "1.00x"
		if baseNodes > 0 {
			rel = fmt.Sprintf("%.2fx", float64(nodes)/float64(baseNodes))
		}
		tb.addRow(strat.String(), nodes, float64(tot.Microseconds())/1000, rel)
	}
	tb.render(w)
	return nil
}

// runMnemonic contrasts ParaCOSM's fine-grained inner-update parallelism
// with Mnemonic's coarse-grained scheme (each update of a batch handled by
// one thread, no intra-update splitting). Both schedules are computed from
// the same measured per-update costs: Mnemonic's batch makespan is the
// maximum update cost in each window of Threads updates — a single
// explosive update stalls its whole batch, which is precisely the load
// imbalance ParaCOSM's task splitting removes (paper §3.2, Challenge 1).
func runMnemonic(cfg Config, w io.Writer) error {
	cfg = cfg.Defaults()
	d := cfg.data(dataset.LiveJournalSpec)
	s := cfg.stream(d)
	qs, err := cfg.queriesFor(d, 9)
	if err != nil {
		return err
	}
	tb := newTable(
		fmt.Sprintf("ParaCOSM vs Mnemonic-style coarse-grained parallelism (%s stand-in, size-9 queries, %d threads)",
			d.Name, cfg.Threads),
		"Algorithm", "sequential (ms)", "Mnemonic (ms)", "ParaCOSM (ms)", "Mnemonic speedup", "ParaCOSM speedup")
	for _, name := range []string{"GraphFlow", "Symbi"} {
		e, err := algo.ByName(name)
		if err != nil {
			return err
		}
		var seq, mnem, pcosm time.Duration
		for _, q := range qs {
			// Measure per-update costs sequentially.
			g := d.Graph.Clone()
			eng := core.New(e.New(), core.Threads(1), core.InterUpdate(false))
			if err := eng.Init(g, q); err != nil {
				return err
			}
			ctx, cancel := context.WithTimeout(context.Background(), cfg.Budget)
			perUpdate := make([]time.Duration, 0, len(s))
			for _, upd := range s {
				dl, err := eng.ProcessUpdate(ctx, upd)
				if err != nil {
					if errors.Is(err, csm.ErrDeadline) {
						break
					}
					cancel()
					return err
				}
				perUpdate = append(perUpdate, dl.TADS+dl.TFind)
				seq += dl.TADS + dl.TFind
			}
			cancel()
			// Mnemonic: batches of Threads updates, one per thread.
			for i := 0; i < len(perUpdate); i += cfg.Threads {
				end := i + cfg.Threads
				if end > len(perUpdate) {
					end = len(perUpdate)
				}
				max := time.Duration(0)
				for _, t := range perUpdate[i:end] {
					if t > max {
						max = t
					}
				}
				mnem += max
			}
			// ParaCOSM full two-level parallelism.
			r := cfg.runOne(e, d, q, s, cfg.parallelOpts(cfg.Threads)...)
			pcosm += r.Stats.TTotal
		}
		spM, spP := "inf", "inf"
		if mnem > 0 {
			spM = fmt.Sprintf("%.2f", float64(seq)/float64(mnem))
		}
		if pcosm > 0 {
			spP = fmt.Sprintf("%.2f", float64(seq)/float64(pcosm))
		}
		tb.addRow(name,
			float64(seq.Microseconds())/1000,
			float64(mnem.Microseconds())/1000,
			float64(pcosm.Microseconds())/1000,
			spM, spP)
	}
	tb.render(w)
	return nil
}
