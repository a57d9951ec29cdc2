// Package bench is the experiment harness: for every table and figure of
// the ParaCOSM paper's motivation (§3) and evaluation (§5) it provides a
// regenerating experiment that produces the same rows/series on the
// synthesized datasets. Absolute numbers differ from the paper's testbed
// (80-core Xeon, full SNAP datasets); the shapes — which algorithm wins,
// rough factors, where scaling saturates — are the reproduction target.
package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"paracosm/internal/algo"
	"paracosm/internal/core"
	"paracosm/internal/csm"
	"paracosm/internal/dataset"
	"paracosm/internal/obs"
	"paracosm/internal/query"
	"paracosm/internal/stream"
)

// Config parameterizes all experiments so they scale from smoke-test to
// paper-sized runs.
type Config struct {
	// Scale multiplies the Table 5 dataset sizes (default 0.002).
	Scale float64
	// Seed drives all dataset and query generation (default 1).
	Seed int64
	// QueriesPerSize is the number of random queries per query size
	// (paper: 100; default here: 3).
	QueriesPerSize int
	// StreamCap bounds the number of stream updates replayed per query
	// (default 300).
	StreamCap int
	// Budget is the per-query processing time limit defining success
	// (paper: 1 hour; default here: 2s).
	Budget time.Duration
	// Threads is the parallel worker count (paper headline: 32; default:
	// GOMAXPROCS).
	Threads int
	// Simulate runs parallel configurations under execution-driven
	// schedule simulation (see core.Simulate). Defaults to true whenever
	// the machine has fewer CPUs than Threads, which is when wall-clock
	// speedups are unmeasurable.
	Simulate bool
	// Tracer, if non-nil, is attached to every engine the harness runs
	// (see core.WithTracer): its trace ring and latency histograms then
	// aggregate across all experiments, which is what the -debug-addr
	// flag of cmd/experiments serves live, next to the engine counters of
	// WriteFinishedStats.
	Tracer *obs.Tracer
}

// Defaults fills unset fields.
func (c Config) Defaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.002
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.QueriesPerSize <= 0 {
		c.QueriesPerSize = 3
	}
	if c.StreamCap <= 0 {
		c.StreamCap = 300
	}
	if c.Budget <= 0 {
		c.Budget = 2 * time.Second
	}
	if c.Threads <= 0 {
		c.Threads = runtime.GOMAXPROCS(0)
		if c.Threads < 8 {
			// The paper's headline configuration is 32 threads; on small
			// machines default to 32 simulated workers.
			c.Threads = 32
		}
	}
	if runtime.NumCPU() < c.Threads {
		c.Simulate = true
	}
	return c
}

// Experiment is one regenerable table/figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config, w io.Writer) error
}

// All returns every experiment, in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Table 1: existing CSM solutions (complexity reference)", Run: runTable1},
		{ID: "fig4", Title: "Figure 4: single-threaded incremental matching time by query size", Run: runFig4},
		{ID: "table3", Title: "Table 3: ADS-update vs Find-Matches breakdown and success rate", Run: runTable3},
		{ID: "table4", Title: "Table 4: average unsafe update percentage", Run: runTable4},
		{ID: "fig7", Title: "Figure 7: ParaCOSM speedup over single-threaded baselines per dataset", Run: runFig7},
		{ID: "fig8", Title: "Figure 8: ParaCOSM speedup on big query graphs (LiveJournal)", Run: runFig8},
		{ID: "table6", Title: "Table 6: success rate of parallel CSM algorithms (LiveJournal)", Run: runTable6},
		{ID: "fig9", Title: "Figure 9: speedup vs number of threads", Run: runFig9},
		{ID: "fig10", Title: "Figure 10: CDF of per-thread busy time, balanced vs unbalanced", Run: runFig10},
		{ID: "fig11", Title: "Figure 11: inter-update mechanism speedup (Orkut)", Run: runFig11},
		{ID: "fig12", Title: "Figure 12: three-stage filtering pruning effectiveness (Orkut)", Run: runFig12},
		{ID: "model", Title: "§4.3: analytical speedup model and safe-update probability", Run: runModel},
	}
}

// AllWithAblations returns the paper experiments followed by the ablation
// studies of DESIGN.md §4.
func AllWithAblations() []Experiment {
	out := append(All(), ablations()...)
	return append(out, ablations2()...)
}

// ByID returns the experiment with the given id (including ablations).
func ByID(id string) (Experiment, error) {
	for _, e := range AllWithAblations() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}

// datasetCache avoids regenerating identical datasets across experiments
// in one process.
var (
	datasetCache   = map[string]*dataset.Dataset{} // guarded by datasetCacheMu
	datasetCacheMu sync.Mutex
)

func (c Config) data(spec dataset.Spec) *dataset.Dataset {
	key := fmt.Sprintf("%s/%g/%d", spec.Name, c.Scale, c.Seed)
	datasetCacheMu.Lock()
	defer datasetCacheMu.Unlock()
	if d, ok := datasetCache[key]; ok {
		return d
	}
	d := dataset.Custom(spec, dataset.Scale(c.Scale), dataset.Seed(c.Seed))
	datasetCache[key] = d
	return d
}

func (c Config) stream(d *dataset.Dataset) stream.Stream {
	s := d.Stream
	if len(s) > c.StreamCap {
		s = s[:c.StreamCap]
	}
	return s
}

// finished is the running total of every finished run's Stats.
var (
	finished   core.Stats // guarded by finishedMu
	finishedMu sync.Mutex
)

// WriteFinishedStats writes the engine counters summed over every run the
// harness has finished so far (see core.Stats.WritePrometheus): an
// obs.MetricsFunc that moves once per finished run.
func WriteFinishedStats(w io.Writer) error {
	finishedMu.Lock()
	st := finished
	finishedMu.Unlock()
	return st.WritePrometheus(w)
}

// RunResult is the outcome of processing one query's stream.
type RunResult struct {
	Elapsed time.Duration // incremental matching time (TTotal)
	Stats   core.Stats
	Success bool // finished within budget
}

// runOne processes stream s for query q over a fresh clone of d.Graph
// using the given engine options, under the per-query budget.
func (c Config) runOne(entry algo.Entry, d *dataset.Dataset, q *query.Graph, s stream.Stream, opts ...core.Option) RunResult {
	g := d.Graph.Clone()
	if c.Tracer != nil {
		// Prepend so an explicit per-call WithTracer wins over the
		// harness-wide one.
		opts = append([]core.Option{core.WithTracer(c.Tracer)}, opts...)
	}
	eng := core.New(entry.New(), opts...)
	defer eng.Close()
	if err := eng.Init(g, q); err != nil {
		// Offline-stage failures are configuration errors, not timeouts.
		panic(fmt.Sprintf("bench: %s Init: %v", entry.Name, err))
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.Budget)
	defer cancel()
	st, err := eng.Run(ctx, s)
	finishedMu.Lock()
	finished.Add(st)
	finishedMu.Unlock()
	res := RunResult{Elapsed: st.TTotal, Stats: st, Success: err == nil}
	if err != nil && !errors.Is(err, csm.ErrDeadline) && !errors.Is(err, context.DeadlineExceeded) {
		panic(fmt.Sprintf("bench: %s run: %v", entry.Name, err))
	}
	return res
}

// sequentialOpts is the single-threaded baseline configuration.
func sequentialOpts() []core.Option {
	return []core.Option{core.Threads(1), core.InterUpdate(false)}
}

// parallelOpts is the full ParaCOSM configuration at n threads.
func (c Config) parallelOpts(n int) []core.Option {
	return []core.Option{core.Threads(n), core.InterUpdate(true), core.LoadBalance(true), core.Simulate(c.Simulate)}
}

// queriesFor deterministically extracts the experiment's query set.
func (c Config) queriesFor(d *dataset.Dataset, size int) ([]*query.Graph, error) {
	return d.RandomQueries(size, c.QueriesPerSize)
}
