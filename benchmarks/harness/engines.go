package harness

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"paracosm/internal/algo"
	"paracosm/internal/core"
	"paracosm/internal/graph"
	"paracosm/internal/stream"
)

// plan turns a run's -seconds into repetition counts. The timed phases
// (set-up, interleaved passes, latency passes, recovery) together take
// about -seconds; below ten seconds the plan shrinks to a smoke test.
type plan struct {
	passBudget time.Duration // interleaved throughput passes
	latBudget  time.Duration // latency passes
	minPasses  int           // timed passes per configuration, after one warm-up
	latPasses  int           // library workloads: per-update passes
	openPasses int           // serve workloads: open-loop passes
	reps       int           // set-up and recovery repetitions
}

func newPlan(secs int) plan {
	s := time.Duration(secs) * time.Second
	p := plan{passBudget: s * 45 / 100, latBudget: s * 15 / 100, minPasses: 7, latPasses: 3, openPasses: 5, reps: 3}
	if secs < 10 {
		p.minPasses, p.latPasses, p.openPasses, p.reps = 2, 1, 1, 1
	}
	return p
}

// seqOpts is the paper's single-threaded baseline; parOpts the deployed
// configuration (inter-update on, all threads, the workload's window).
func seqOpts() []core.Option {
	return []core.Option{core.Threads(1), core.InterUpdate(false), core.Window(1)}
}

func parOpts(sp Spec) []core.Option {
	return []core.Option{core.Threads(Threads()), core.InterUpdate(true), core.Window(sp.Window)}
}

// totals are one query's match totals over the two halves of a pass.
type totals struct {
	PosF, NegF, PosB, NegB uint64
}

// engines is one core.Engine per standing query.
type engines struct {
	in     *Inputs
	graphs []*graph.Graph
	engs   []*core.Engine
}

// newEngines builds and Inits one engine per query. Each engine owns a
// clone of g unless shared is set, in which case all of them run on g
// itself, one after another: a round trip returns g to its base state,
// so the next engine's index, built over the base state, is still exact.
func newEngines(in *Inputs, g *graph.Graph, shared bool, opts []core.Option) (*engines, error) {
	es := &engines{in: in}
	for _, q := range in.Queries {
		entry, err := algo.ByName(q.Algo)
		if err != nil {
			es.close()
			return nil, err
		}
		eg := g
		if !shared {
			eg = g.Clone()
		}
		eng := core.New(entry.New(), opts...)
		if err := eng.Init(eg, q.G); err != nil {
			es.close()
			return nil, fmt.Errorf("query %s: %w", q.Name, err)
		}
		es.graphs = append(es.graphs, eg)
		es.engs = append(es.engs, eng)
	}
	return es, nil
}

func (es *engines) close() {
	for _, e := range es.engs {
		e.Close()
	}
}

// pass drives one round trip through every engine in turn with
// Engine.Run and returns the wall time and each query's totals.
func (es *engines) pass() (time.Duration, []totals, error) {
	ctx := context.Background()
	out := make([]totals, len(es.engs))
	t0 := time.Now()
	for i, e := range es.engs {
		s0 := e.Stats()
		if _, err := e.Run(ctx, es.in.Fwd); err != nil {
			return 0, nil, fmt.Errorf("query %s: %w", es.in.Queries[i].Name, err)
		}
		s1 := e.Stats()
		if _, err := e.Run(ctx, es.in.Bwd); err != nil {
			return 0, nil, fmt.Errorf("query %s: %w", es.in.Queries[i].Name, err)
		}
		s2 := e.Stats()
		out[i] = totals{s1.Positive - s0.Positive, s1.Negative - s0.Negative, s2.Positive - s1.Positive, s2.Negative - s1.Negative}
	}
	return time.Since(t0), out, nil
}

// latencyPass drives one round trip through every engine one
// ProcessUpdate call at a time, appending each call's duration to samples.
func (es *engines) latencyPass(samples []time.Duration) ([]time.Duration, []totals, error) {
	ctx := context.Background()
	out := make([]totals, len(es.engs))
	for i, e := range es.engs {
		for h, half := range []stream.Stream{es.in.Fwd, es.in.Bwd} {
			var pos, neg uint64
			for _, u := range half {
				t0 := time.Now()
				d, err := e.ProcessUpdate(ctx, u)
				samples = append(samples, time.Since(t0))
				if err != nil {
					return samples, nil, fmt.Errorf("query %s: %v: %w", es.in.Queries[i].Name, u, err)
				}
				pos += d.Positive
				neg += d.Negative
			}
			if h == 0 {
				out[i].PosF, out[i].NegF = pos, neg
			} else {
				out[i].PosB, out[i].NegB = pos, neg
			}
		}
	}
	return samples, out, nil
}

// stats sums the engines' instrumentation.
func (es *engines) stats() core.Stats {
	var s core.Stats
	for _, e := range es.engs {
		s.Add(e.Stats())
	}
	return s
}

// kernels sums the intersection-kernel counters of the engines whose
// algorithm exposes them (every bundled one does).
func (es *engines) kernels() graph.KernelCounters {
	var kc graph.KernelCounters
	for _, e := range es.engs {
		if a, ok := e.Algo().(interface{ KernelCounters() graph.KernelCounters }); ok {
			kc.Add(a.KernelCounters())
		}
	}
	return kc
}

// checkRoundTrip is the gate that a pass left every graph where it began.
func (es *engines) checkRoundTrip(r *Result, what string) {
	for i, g := range es.graphs {
		if g.NumEdges() != es.in.Base.NumEdges() {
			r.failf("%s: query %s: %d edges after a round trip, base has %d", what, es.in.Queries[i].Name, g.NumEdges(), es.in.Base.NumEdges())
		}
	}
}

// checkTotals gates a configuration's totals on the sequential engine's.
// Coalescing removes updates (and their ΔM) from a window, so a windowed
// configuration is held to the net change of each half, which no legal
// reordering can alter; every other configuration is held to ΔM⁺ and ΔM⁻
// exactly.
func checkTotals(r *Result, what string, in *Inputs, ref, got []totals, exact bool) {
	for i := range ref {
		ok := ref[i] == got[i]
		if !exact {
			ok = ref[i].PosF-ref[i].NegF == got[i].PosF-got[i].NegF &&
				ref[i].PosB-ref[i].NegB == got[i].PosB-got[i].NegB
		}
		if !ok {
			r.failf("%s: query %s: totals %+v, sequential engine %+v", what, in.Queries[i].Name, got[i], ref[i])
		}
	}
}

// interleave runs the configurations' passes round-robin — a, b, a, b … —
// so machine drift over the run hits each alike. Every configuration gets
// one discarded warm-up pass, then at least minPasses timed ones, and
// rounds continue until the budget is spent. The heap is collected
// before every pass so no pass pays for its predecessor's garbage.
func interleave(budget time.Duration, minPasses int, cfgs ...func(timed bool) (time.Duration, error)) ([][]time.Duration, error) {
	out := make([][]time.Duration, len(cfgs))
	for _, f := range cfgs {
		runtime.GC()
		if _, err := f(false); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	const maxPasses = 64
	for n := 0; n < maxPasses && (n < minPasses || time.Since(start) < budget); n++ {
		for i, f := range cfgs {
			runtime.GC()
			d, err := f(true)
			if err != nil {
				return nil, err
			}
			out[i] = append(out[i], d)
		}
	}
	return out, nil
}
