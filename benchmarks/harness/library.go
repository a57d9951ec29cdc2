package harness

import (
	"bufio"
	"bytes"
	"fmt"
	"time"

	"paracosm/internal/graph"
)

// loadAndInit times what a host application does before its first
// update: load the data graph, then build every standing query's engine
// and index over its own copy. With graph.Read of the graph's text it is
// the library workloads' set-up; with graph.ReadState of a WriteState
// image — the codec the durability layer snapshots with — it is their
// recovery, what the application does after losing the process.
func loadAndInit(in *Inputs, load func() (*graph.Graph, error)) (*engines, time.Duration, error) {
	t0 := time.Now()
	g, err := load()
	if err != nil {
		return nil, 0, fmt.Errorf("load data graph: %w", err)
	}
	es, err := newEngines(in, g, false, parOpts(in.Spec))
	if err != nil {
		return nil, 0, err
	}
	return es, time.Since(t0), nil
}

// runLibrary measures a library workload end to end.
func runLibrary(in *Inputs, secs int) (*Result, error) {
	r := newResult(in, secs, false)
	pl := newPlan(secs)

	var text, state bytes.Buffer
	if err := in.Base.Write(&text); err != nil {
		return nil, err
	}
	if err := in.Base.WriteState(&state); err != nil {
		return nil, err
	}

	// Set-up, several times; the last instance is the one measured.
	phase := newPhases(r)
	var par *engines
	var setups []time.Duration
	for i := 0; i < pl.reps; i++ {
		if par != nil {
			par.close()
		}
		es, d, err := loadAndInit(in, func() (*graph.Graph, error) { return graph.Read(bytes.NewReader(text.Bytes())) })
		if err != nil {
			return nil, err
		}
		par, setups = es, append(setups, d)
	}
	defer par.close()
	seq, err := newEngines(in, in.Base.Clone(), true, seqOpts())
	if err != nil {
		return nil, err
	}
	defer seq.close()
	phase.mark("setup")

	// Interleaved passes: sequential baseline, deployed configuration.
	var ref []totals
	var refNodes uint64
	var refKernel graph.KernelCounters
	var cpus []time.Duration
	var peaks []float64
	exact := in.Spec.Window <= 1
	times, err := interleave(pl.passBudget, pl.minPasses,
		func(timed bool) (time.Duration, error) {
			n0, k0 := seq.stats().Nodes, seq.kernels()
			d, tot, err := seq.pass()
			if err != nil {
				return 0, err
			}
			nodes, kern := seq.stats().Nodes-n0, seq.kernels()
			kern.Intersections -= k0.Intersections
			if ref == nil {
				ref, refNodes, refKernel.Intersections = tot, nodes, kern.Intersections
			}
			// Single-threaded counts must repeat exactly pass after pass.
			checkTotals(r, "sequential pass", in, ref, tot, true)
			if nodes != refNodes || kern.Intersections != refKernel.Intersections {
				r.failf("sequential pass: %d nodes / %d intersections, first pass had %d / %d", nodes, kern.Intersections, refNodes, refKernel.Intersections)
			}
			seq.checkRoundTrip(r, "sequential pass")
			r.attempt(in.Updates())
			return d, nil
		},
		func(timed bool) (time.Duration, error) {
			resetPeakRSS(0)
			c0 := selfCPU()
			d, tot, err := par.pass()
			if err != nil {
				return 0, err
			}
			if timed {
				cpus = append(cpus, selfCPU()-c0)
				rss, err := peakRSSMB(0)
				if err != nil {
					return 0, err
				}
				peaks = append(peaks, rss)
			}
			checkTotals(r, "parallel pass", in, ref, tot, exact)
			par.checkRoundTrip(r, "parallel pass")
			r.attempt(in.Updates())
			return d, nil
		})
	if err != nil {
		return nil, err
	}
	seqT, parT := times[0], times[1]
	r.Passes = map[string][]float64{"sequential": seconds(seqT), "deployed": seconds(parT)}
	phase.mark("passes")

	// Latency: the deployed engines, one ProcessUpdate call at a time.
	// Each pass yields its own percentiles and the run reports the median
	// over passes, so that one pass caught in a stall of the box does not
	// set the run's p95.
	var p50s, p95s []float64
	samples := make([]time.Duration, 0, in.Updates()*len(in.Queries))
	nSamples := 0
	latStart := time.Now()
	for n := 0; n < pl.latPasses || time.Since(latStart) < pl.latBudget; n++ {
		var tot []totals
		samples, tot, err = par.latencyPass(samples[:0])
		if err != nil {
			return nil, err
		}
		checkTotals(r, "per-update pass", in, ref, tot, true)
		par.checkRoundTrip(r, "per-update pass")
		r.attempt(in.Updates())
		nSamples += len(samples)
		p50s, p95s = append(p50s, ms(durQuantile(samples, 0.50))), append(p95s, ms(durQuantile(samples, 0.95)))
	}

	phase.mark("latency")

	var recov []time.Duration
	for i := 0; i < pl.reps; i++ {
		es, d, err := loadAndInit(in, func() (*graph.Graph, error) {
			return graph.ReadState(bufio.NewReader(bytes.NewReader(state.Bytes())))
		})
		if err != nil {
			return nil, err
		}
		es.close()
		recov = append(recov, d)
	}

	phase.mark("recovery")

	n := float64(in.Updates())
	r.set("updates_per_s", n/median(seconds(parT)))
	r.set("seq_updates_per_s", n/median(seconds(seqT)))
	r.set("cpu_us_per_update", median(seconds(cpus))*1e6/n)
	r.set("detect_latency_p50_ms", median(p50s))
	r.set("detect_latency_p95_ms", median(p95s))
	r.set("recovery_s", median(seconds(recov)))
	r.set("setup_s", median(seconds(setups)))
	r.set("rss_peak_mb", median(peaks))

	r.note("passes", float64(len(parT)), "count")
	r.note("updates_per_pass", n, "count")
	r.note("latency_samples", float64(nSamples), "count")
	r.note("latency_passes", float64(len(p50s)), "count")
	r.note("pass_spread_par", spread(seconds(parT)), "ratio")
	r.note("pass_spread_seq", spread(seconds(seqT)), "ratio")
	r.Env.LoadEnd = loadavg()
	return r, nil
}
