package harness

import (
	"bufio"
	"bytes"
	"os"
	"time"

	"paracosm/internal/concurrent"
	"paracosm/internal/graph"
	"paracosm/internal/obs"
	"paracosm/internal/server"
	"paracosm/internal/stream"
	"paracosm/internal/wal"
)

// perOp times fn — which performs and returns some number of operations —
// in three rounds of at least 50 ms each and returns the median
// nanoseconds per operation.
func perOp(fn func() int) float64 {
	var rounds []float64
	for i := 0; i < 3; i++ {
		ops := 0
		t0 := time.Now()
		for time.Since(t0) < 50*time.Millisecond {
			ops += fn()
		}
		rounds = append(rounds, float64(time.Since(t0).Nanoseconds())/float64(ops))
	}
	return median(rounds)
}

// once times fn up to three times and returns the median in
// milliseconds; a round longer than 0.3 s stands alone, since the traced
// run has a few dozen of these to get through.
func once(fn func() error) (float64, error) {
	var rounds []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		rounds = append(rounds, ms(d))
		if d > 300*time.Millisecond {
			break
		}
	}
	return median(rounds), nil
}

// sink keeps results the compiler could otherwise prove unused.
var sink int

// microGraph times the graph layer's public functions on the workload's
// own graph and the endpoints its stream touches.
func microGraph(r *Result, in *Inputs) error {
	g := in.Base.Clone()
	pass := append(append(stream.Stream(nil), in.Fwd...), in.Bwd...)
	r.set("graph.apply_ns_per_update", perOp(func() int {
		for _, u := range pass {
			if err := u.Apply(g); err != nil {
				panic(err) // the stream was validated by every pass before this
			}
		}
		return len(pass)
	}))

	probe := in.Fwd
	if len(probe) > 4096 {
		probe = probe[:4096]
	}
	var dst []graph.VertexID
	var ks graph.KernelStats
	r.set("graph.intersect_ns_per_call", perOp(func() int {
		for _, u := range probe {
			dst = graph.IntersectNeighborIDs(dst[:0], g.NeighborsWithLabel(u.U, 0), g.NeighborsWithLabel(u.V, 0), &ks)
			sink += len(dst)
		}
		return len(probe)
	}))
	r.set("graph.neighbors_with_label_ns_per_call", perOp(func() int {
		for _, u := range probe {
			for l := graph.Label(0); l < 4; l++ {
				sink += len(g.NeighborsWithLabel(u.U, l)) + len(g.NeighborsWithLabel(u.V, l))
			}
		}
		return 8 * len(probe)
	}))
	var fs graph.FootprintScratch
	r.set("graph.footprint_ns_per_call", perOp(func() int {
		for _, u := range probe {
			fp, _ := fs.Footprint(g, u.U, u.V, 2, 512, nil)
			sink += len(fp)
		}
		return len(probe)
	}))

	v, err := once(func() error { sink += g.Clone().NumEdges(); return nil })
	if err != nil {
		return err
	}
	r.set("graph.clone_ms", v)
	var state bytes.Buffer
	if v, err = once(func() error { state.Reset(); return g.WriteState(&state) }); err != nil {
		return err
	}
	r.set("graph.state_write_ms", v)
	if v, err = once(func() error {
		_, err := graph.ReadState(bufio.NewReader(bytes.NewReader(state.Bytes())))
		return err
	}); err != nil {
		return err
	}
	r.set("graph.state_read_ms", v)
	return nil
}

// microStream times the text codec and the window coalescer.
func microStream(r *Result, in *Inputs) {
	pass := append(append(stream.Stream(nil), in.Fwd...), in.Bwd...)
	if len(pass) > 1<<16 {
		pass = pass[:1<<16]
	}
	lines := make([]string, len(pass))
	r.set("stream.encode_ns_per_update", perOp(func() int {
		for i, u := range pass {
			lines[i] = u.String()
		}
		return len(pass)
	}))
	r.set("stream.parse_ns_per_update", perOp(func() int {
		for _, ln := range lines {
			u, err := stream.ParseUpdate(ln)
			if err != nil {
				panic(err) // lines were produced by Update.String just above
			}
			sink += int(u.U)
		}
		return len(lines)
	}))
	co := stream.NewCoalescer()
	var dst stream.Stream
	in64, out64 := 0, 0
	r.set("stream.coalesce_ns_per_update", perOp(func() int {
		in64, out64 = 0, 0
		for _, win := range frames(pass, 64) {
			var st stream.CoalesceStats
			dst, st = co.Coalesce(dst[:0], win)
			in64, out64 = in64+st.In, out64+st.Out
		}
		return len(pass)
	}))
	r.set("stream.coalesce_survivor_ratio", ratio(float64(out64), float64(in64)))
}

// microWire times the wire codec on frames of closedFrame updates.
func microWire(r *Result, in *Inputs) error {
	batch := in.Fwd
	if len(batch) > closedFrame {
		batch = batch[:closedFrame]
	}
	var buf bytes.Buffer
	var werr error
	r.set("server.wire_encode_ns_per_update", perOp(func() int {
		buf.Reset()
		if err := server.WriteFrame(&buf, &server.Frame{Type: server.TypeBatch, ID: 1, Updates: server.EncodeUpdates(batch)}); err != nil {
			werr = err
		}
		return len(batch)
	}))
	if werr != nil {
		return werr
	}
	frame := append([]byte(nil), buf.Bytes()...)
	r.set("server.wire_decode_ns_per_update", perOp(func() int {
		f, err := server.ReadFrame(bufio.NewReader(bytes.NewReader(frame)), 0)
		if err == nil {
			_, err = server.DecodeUpdates(f.Updates)
		}
		if err != nil {
			werr = err
		}
		return len(batch)
	}))
	return werr
}

// microWAL appends one pass to a scratch log in the batches the server
// would (closedFrame updates), then snapshots, reloads and rescans it.
func microWAL(r *Result, in *Inputs, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Open(dir, wal.Options{Policy: wal.SyncInterval})
	if err != nil {
		return err
	}
	pass := append(append(stream.Stream(nil), in.Fwd...), in.Bwd...)
	t0 := time.Now()
	for _, batch := range frames(pass, closedFrame) {
		if _, err := log.AppendUpdates(batch); err != nil {
			log.Close()
			return err
		}
	}
	if err := log.Sync(); err != nil {
		log.Close()
		return err
	}
	el := time.Since(t0)
	m := log.Metrics()
	r.set("wal.append_us_per_update", float64(el.Microseconds())/float64(len(pass)))
	r.set("wal.bytes_per_update", ratio(float64(m.Bytes), float64(m.Records)))
	if err := log.Close(); err != nil {
		return err
	}

	// Three rounds whatever they take: a snapshot ends in two fsyncs, and
	// the figure below is a fifth of what serve_ingest costs per update.
	var writes []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := wal.WriteSnapshot(dir, 0, in.Base, nil); err != nil {
			return err
		}
		writes = append(writes, ms(time.Since(t0)))
	}
	r.set("wal.snapshot_write_ms", median(writes))
	// The ladder's WAL rungs run with periodic snapshots off; deployed,
	// the server writes one per snapshotCadence updates.
	r.set("wal.snapshot_us_per_update", median(writes)*1000/snapshotCadence)
	var v float64
	if v, err = once(func() error { _, err := wal.LoadSnapshot(dir); return err }); err != nil {
		return err
	}
	r.set("wal.snapshot_load_ms", v)

	log, err = wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	defer log.Close()
	n := 0
	t0 = time.Now()
	if err := log.Replay(0, func(wal.Record) error { n++; return nil }); err != nil {
		return err
	}
	if n != len(pass) {
		r.failf("wal: rescanned %d records, appended %d", n, len(pass))
	}
	r.set("wal.replay_records_per_s", float64(n)/time.Since(t0).Seconds())
	return nil
}

// microPoolObs times one worker-pool epoch over a trivial frontier and
// one histogram observation.
func microPoolObs(r *Result) {
	pool := concurrent.NewPool[int](Threads())
	frontier := make([]int, Threads())
	run := func(int, int) {}
	r.set("concurrent.pool_epoch_ns", perOp(func() int {
		for i := 0; i < 100; i++ {
			pool.Submit(frontier, run)
		}
		return 100
	}))
	pool.Close()
	h := obs.NewHistogram()
	r.set("obs.histogram_observe_ns", perOp(func() int {
		for i := 0; i < 1000; i++ {
			h.Observe(time.Duration(i) * time.Microsecond)
		}
		return 1000
	}))
}
