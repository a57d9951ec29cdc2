package harness

import (
	"context"
	"time"

	"paracosm/internal/algo"
	"paracosm/internal/core"
	"paracosm/internal/server"
	"paracosm/internal/stream"
)

// singleEngineQueries caps how many of a workload's queries the traced
// run drives through single core.Engines for the core/algo counters: all
// of them on the library workloads, a sample of the 128 on
// serve_multiquery.
const singleEngineQueries = 8

// multiRung is the ladder's in-process core rung: the MultiEngine the
// server runs, fed the batches the server would feed it.
type multiRung struct {
	in *Inputs
	m  *core.MultiEngine
}

// newMultiRung inits an empty MultiEngine over the base graph and
// registers every query live, returning the mean registration time.
func newMultiRung(in *Inputs) (*multiRung, time.Duration, error) {
	m := core.NewMulti(parOpts(in.Spec)...)
	if err := m.Init(in.Base); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	for _, q := range in.Queries {
		entry, err := algo.ByName(q.Algo)
		if err != nil {
			m.Close()
			return nil, 0, err
		}
		if err := m.RegisterLive(q.Name, entry.New(), q.G); err != nil {
			m.Close()
			return nil, 0, err
		}
	}
	return &multiRung{in: in, m: m}, time.Since(t0) / time.Duration(len(in.Queries)), nil
}

func (mr *multiRung) totals() []totals {
	st := mr.m.Stats()
	out := make([]totals, len(mr.in.Queries))
	for i, q := range mr.in.Queries {
		out[i] = totals{PosF: st[q.Name].Positive, NegF: st[q.Name].Negative}
	}
	return out
}

// pass drives one round trip in batches of closedFrame. With codec set,
// every batch first goes through the stream text codec and back, as it
// would on the wire.
func (mr *multiRung) pass(r *Result, codec bool) (time.Duration, []totals, error) {
	ctx := context.Background()
	t0 := time.Now()
	marks := [3][]totals{mr.totals()}
	for h, half := range []stream.Stream{mr.in.Fwd, mr.in.Bwd} {
		for _, batch := range frames(half, closedFrame) {
			if codec {
				var err error
				if batch, err = server.DecodeUpdates(server.EncodeUpdates(batch)); err != nil {
					return 0, nil, err
				}
			}
			n, err := mr.m.ProcessBatch(ctx, batch)
			if err != nil {
				return 0, nil, err
			}
			if n != len(batch) {
				r.failf("in-process MultiEngine applied %d of %d updates", n, len(batch))
			}
		}
		marks[h+1] = mr.totals()
	}
	wall := time.Since(t0)
	out := make([]totals, len(mr.in.Queries))
	for i := range out {
		out[i] = totals{
			PosF: marks[1][i].PosF - marks[0][i].PosF, NegF: marks[1][i].NegF - marks[0][i].NegF,
			PosB: marks[2][i].PosF - marks[1][i].PosF, NegB: marks[2][i].NegF - marks[1][i].NegF,
		}
	}
	r.attempt(mr.in.Updates())
	return wall, out, nil
}

// serverCounters is the slice of /metrics the traced run differences
// around the top rung's passes.
type serverCounters struct {
	ingested, batches, deltas, dropped, flushes, fsyncs float64
}

func (p *serverProc) serverCounters() (serverCounters, error) {
	m, err := p.counters()
	if err != nil {
		return serverCounters{}, err
	}
	return serverCounters{
		ingested: m["paracosm_server_updates_ingested_total"],
		batches:  m["paracosm_stage_wal_append_seconds_count"],
		deltas:   m["paracosm_server_deltas_total"],
		dropped:  m["paracosm_server_deltas_dropped_total"],
		flushes:  m["paracosm_wal_flushes_total"],
		fsyncs:   m["paracosm_wal_fsyncs_total"],
	}, nil
}

// runTrace is the traced run: the workload's exact inputs driven up the
// layer ladder, the single-engine counters, and the microbenchmarks.
func runTrace(in *Inputs, o Options) (*Result, error) {
	// Six rungs, two single-engine configurations and the microbenchmarks
	// share the time one end-to-end run gives to two configurations, so
	// the traced run drives the first third of the pass.
	in = in.prefix((len(in.Fwd) + 2) / 3)
	r := newResult(in, o.Seconds, true)
	pl := newPlan(o.Seconds)
	minPasses := 3
	if o.Seconds < 10 {
		minPasses = 1
	}
	env, err := newRunEnv(o)
	if err != nil {
		return nil, err
	}
	defer env.cleanup()
	rec := newSpanRecorder()
	n := float64(in.Updates())

	// The sequential engine over every query: the oracle, and the source
	// of the algo and kernel counts, which repeat exactly.
	t0 := time.Now()
	seqAll, err := newEngines(in, in.Base.Clone(), true, seqOpts())
	if err != nil {
		return nil, err
	}
	defer seqAll.close()
	r.set("algo.init_ms_per_query", ms(time.Since(t0))/float64(len(in.Queries)))
	_, ref, err := seqAll.pass()
	if err != nil {
		return nil, err
	}
	seqAll.checkRoundTrip(r, "sequential pass")
	r.attempt(in.Updates())
	st, kc := seqAll.stats(), seqAll.kernels()
	r.set("algo.ads_share", ratio(float64(st.TADS), float64(st.TTotal)))
	r.set("algo.find_share", ratio(float64(st.TFind), float64(st.TTotal)))
	r.set("algo.nodes_per_update", ratio(float64(st.Nodes), float64(st.Updates)))
	r.set("algo.matches_per_update", ratio(float64(st.Positive+st.Negative), float64(st.Updates)))
	r.set("graph.kernel_intersections", float64(kc.Intersections))
	r.set("graph.kernel_galloped_ratio", ratio(float64(kc.Galloped), float64(kc.Probes)))
	r.set("graph.candidate_hit_ratio", ratio(float64(kc.CandHits), float64(kc.CandLookups)))

	if err := traceSingleEngines(r, in, ref, pl, minPasses); err != nil {
		return nil, err
	}

	// The ladder.
	dataFile, err := env.writeDataFile(in)
	if err != nil {
		return nil, err
	}
	bare := in.Base.Clone()
	// A pass of r0 is microseconds of work on the small streams; repeat
	// it so the rung's timed quantity is milliseconds.
	r0reps := 1 + 200000/in.Updates()
	mr, regLive, err := newMultiRung(in)
	if err != nil {
		return nil, err
	}
	defer mr.m.Close()
	r.set("core.register_live_ms", ms(regLive))
	// Periodic snapshots are off on the WAL rungs: a rung's pass is a
	// fraction of the cadence, so a snapshot would land in some passes of
	// some rungs and read as that layer's self time. What a snapshot costs
	// is wal.snapshot_write_ms, once per 65536 updates.
	var sess [3]*session // r3 no WAL, r4 WAL, r5 WAL + tracer
	for i, f := range []serveFlags{{}, {wal: true, snapshotEvery: -1}, {wal: true, tracer: true, snapshotEvery: -1}} {
		if sess[i], _, err = env.open(in, f, dataFile); err != nil {
			return nil, err
		}
		defer sess[i].close()
	}
	exact := in.Spec.Window <= 1
	inProcess := func(name, below string, codec bool) func(bool) (time.Duration, error) {
		return func(bool) (time.Duration, error) {
			sp := rec.begin(name, 0)
			rec.spans[sp-1].Below = below
			d, tot, err := mr.pass(r, codec)
			rec.end(sp)
			if err != nil {
				return 0, err
			}
			checkTotals(r, name, in, ref, tot, exact)
			return d, nil
		}
	}
	served := func(name, below string, s *session, spans bool) func(bool) (time.Duration, error) {
		return func(bool) (time.Duration, error) {
			sp := rec.begin(name, 0)
			rec.spans[sp-1].Below = below
			crec := rec
			if !spans {
				crec = nil
			}
			d, c, err := s.closedLoop(r, name, in, crec, sp)
			rec.end(sp)
			if err != nil {
				return 0, err
			}
			s.checkDelivery(r, name, c, ref, exact)
			return d, nil
		}
	}
	var top serverCounters
	var topWall time.Duration
	r5 := served("r5_tracer", "r4_wal", sess[2], true)
	times, err := interleave(pl.passBudget, minPasses,
		func(bool) (time.Duration, error) {
			rec.pass++
			sp := rec.begin("r0_graph", 0)
			t0 := time.Now()
			for i := 0; i < r0reps; i++ {
				if err := in.Fwd.ApplyAll(bare); err != nil {
					return 0, err
				}
				if err := in.Bwd.ApplyAll(bare); err != nil {
					return 0, err
				}
			}
			d := time.Since(t0) / time.Duration(r0reps)
			rec.end(sp)
			return d, nil
		},
		inProcess("r1_core", "r0_graph", false),
		inProcess("r2_stream", "r1_core", true),
		served("r3_server", "r2_stream", sess[0], true),
		served("r4_wal", "r3_server", sess[1], true),
		func(timed bool) (time.Duration, error) {
			c0, err := sess[2].p.serverCounters()
			if err != nil {
				return 0, err
			}
			d, err := r5(timed)
			if err != nil {
				return 0, err
			}
			c1, err := sess[2].p.serverCounters()
			if err != nil {
				return 0, err
			}
			top.ingested += c1.ingested - c0.ingested
			top.batches += c1.batches - c0.batches
			top.deltas += c1.deltas - c0.deltas
			top.dropped += c1.dropped - c0.dropped
			top.flushes += c1.flushes - c0.flushes
			top.fsyncs += c1.fsyncs - c0.fsyncs
			topWall += d
			return d, nil
		},
		served("r5_tracer_unspanned", "r4_wal", sess[2], false),
	)
	if err != nil {
		return nil, err
	}
	if bare.NumEdges() != in.Base.NumEdges() {
		r.failf("r0_graph: %d edges after round trips, base has %d", bare.NumEdges(), in.Base.NumEdges())
	}
	if err := sess[2].checkServed(r, "r5_tracer", ref, len(times[5])+len(times[6])+2, exact); err != nil {
		return nil, err
	}

	us := func(ds []time.Duration) float64 { return median(seconds(ds)) * 1e6 / n }
	rung := [6]float64{us(times[0]), us(times[1]), us(times[2]), us(times[3]), us(times[4]), us(times[5])}
	names := [6]string{"r0_graph", "r1_core", "r2_stream", "r3_server", "r4_wal", "r5_tracer"}
	layers := [6]string{"graph", "core", "stream", "server", "wal", "obs"}
	self := map[string]float64{}
	for i := range rung {
		r.set("ladder."+names[i]+"_us_per_update", rung[i])
		v := rung[i]
		if i > 0 {
			v -= rung[i-1]
		}
		self[layers[i]] = v
		r.set(layers[i]+".self_us_per_update", v)
	}
	r.set("core.multi_us_per_update", rung[1])
	r.set("core.multi_us_per_update_per_query", rung[1]/float64(len(in.Queries)))
	r.set("obs.tracer_overhead_pct", 100*ratio(rung[5]-rung[4], rung[4]))
	unspanned := us(times[6])
	r.set("bench.trace_overhead_pct", 100*ratio(rung[5]-unspanned, unspanned))

	r.set("server.send_rtt_ms_p50", ms(durQuantile(rec.durations("send_rtt"), 0.5)))
	r.set("server.flush_rtt_ms_p50", ms(durQuantile(rec.durations("flush_rtt"), 0.5)))
	r.set("server.mean_batch_size", ratio(top.ingested, top.batches))
	r.set("server.deltas_per_update", ratio(top.deltas, top.ingested))
	r.set("server.delta_drop_ratio", ratio(top.dropped, top.deltas))
	r.set("wal.flushes_per_1k_updates", 1000*ratio(top.flushes, top.ingested))
	r.set("wal.fsyncs_per_s", ratio(top.fsyncs, topWall.Seconds()))

	if err := microGraph(r, in); err != nil {
		return nil, err
	}
	microStream(r, in)
	if err := microWire(r, in); err != nil {
		return nil, err
	}
	if err := microWAL(r, in, env.dir("microwal")); err != nil {
		return nil, err
	}
	microPoolObs(r)

	path, err := writeTrace(o.OutDir, traceFile{Workload: in.Spec.Name, Seed: in.Seed, Updates: in.Updates(), SelfUS: self, Spans: rec.spans})
	if err != nil {
		return nil, err
	}
	r.TraceFile = path
	r.note("passes", float64(len(times[0])), "count")
	r.note("updates_per_pass", n, "count")
	r.note("spans", float64(len(rec.spans)), "count")
	r.Env.LoadEnd = loadavg()
	return r, nil
}

// traceSingleEngines runs a sample of the queries through single
// core.Engines, sequential and deployed configuration interleaved, for
// the counters the MultiEngine and the server do not expose per layer.
func traceSingleEngines(r *Result, in *Inputs, ref []totals, pl plan, minPasses int) error {
	sub := *in
	if len(sub.Queries) > singleEngineQueries {
		sub.Queries = sub.Queries[:singleEngineQueries]
	}
	ref = ref[:len(sub.Queries)]
	seq, err := newEngines(&sub, in.Base.Clone(), true, seqOpts())
	if err != nil {
		return err
	}
	defer seq.close()
	par, err := newEngines(&sub, in.Base.Clone(), true, parOpts(in.Spec))
	if err != nil {
		return err
	}
	defer par.close()
	exact := in.Spec.Window <= 1
	var parWall time.Duration
	times, err := interleave(pl.latBudget, minPasses,
		func(bool) (time.Duration, error) {
			d, tot, err := seq.pass()
			if err != nil {
				return 0, err
			}
			checkTotals(r, "single-engine sequential pass", &sub, ref, tot, true)
			r.attempt(in.Updates())
			return d, nil
		},
		func(bool) (time.Duration, error) {
			d, tot, err := par.pass()
			if err != nil {
				return 0, err
			}
			parWall += d
			checkTotals(r, "single-engine parallel pass", &sub, ref, tot, exact)
			r.attempt(in.Updates())
			return d, nil
		})
	if err != nil {
		return err
	}
	st := par.stats()
	var busy time.Duration
	for _, b := range st.ThreadBusy {
		busy += b
	}
	upd := float64(st.Updates)
	r.set("core.par_speedup", ratio(median(seconds(times[0])), median(seconds(times[1]))))
	r.set("core.safe_ratio", st.SafeRatio())
	r.set("core.safe_by_label_ratio", ratio(float64(st.SafeByLabel), upd))
	r.set("core.reclassified_ratio", ratio(float64(st.Reclassified), upd))
	r.set("core.escalation_rate", st.EscalationRate())
	r.set("core.resplits_per_escalation", ratio(float64(st.Resplits), float64(st.Escalations)))
	r.set("core.thread_busy_share", ratio(float64(busy), float64(parWall)*float64(Threads())))
	r.set("concurrent.pool_parks_per_escalation", ratio(float64(st.Parks), float64(st.Escalations)))
	r.set("concurrent.pool_wakeups_per_escalation", ratio(float64(st.Wakeups), float64(st.Escalations)))
	w := st.Window
	unsafe := float64(w.UnsafeParallel + w.FallbackSerial)
	r.set("core.window_coalesced_ratio", ratio(float64(w.Coalesced), upd+float64(w.Coalesced)))
	r.set("core.window_parallel_unsafe_ratio", ratio(float64(w.UnsafeParallel), unsafe))
	r.set("core.window_serial_fallback_ratio", ratio(float64(w.FallbackSerial), unsafe))
	r.set("core.window_max_group", float64(w.MaxGroup))

	samples, tot, err := par.latencyPass(nil)
	if err != nil {
		return err
	}
	checkTotals(r, "single-engine per-update pass", &sub, ref, tot, true)
	par.checkRoundTrip(r, "single-engine passes")
	r.attempt(in.Updates())
	r.set("core.process_update_ns_p50", float64(durQuantile(samples, 0.5).Nanoseconds()))
	if len(sub.Queries) < len(in.Queries) {
		r.note("single_engine_queries", float64(len(sub.Queries)), "count")
	}
	return nil
}
