package harness

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"paracosm/internal/server"
	"paracosm/internal/stream"
)

const (
	// closedFrame is the updates per wire frame of the closed-loop
	// throughput passes; openFrame of the fixed-rate latency passes.
	closedFrame = 256
	openFrame   = 16
	// subQueue is the server's per-connection delta queue (-sub-queue).
	// The default of 256 is sized for a subscriber of one quiet query; a
	// batch of 256 updates can produce more deltas than that before the
	// writer goroutine runs, and a dropped delta is a failed operation.
	subQueue = 4096
	// deltaBuffer is the subscriber's client-side buffer, sized so that a
	// collector goroutine descheduled for a few milliseconds loses nothing.
	deltaBuffer = 1 << 16
)

// serveFlags select what a server instance runs with; each ladder rung
// and each phase of the end-to-end measurement is one combination.
type serveFlags struct {
	wal           bool
	tracer        bool
	snapshotEvery int // 0 keeps the server's default cadence
}

// session is one running server with the workload's queries registered,
// a sender connection and a subscriber connection.
type session struct {
	in   *Inputs
	p    *serverProc
	wal  string // WAL directory, "" without one
	send *server.Client
	sub  *server.Client
	// pos maps an update of the latency pass to its position in it, for
	// finding the frame (and so the scheduled send time) of a delta's
	// trigger. Built on first use.
	pos map[stream.Update]int32
	// prev holds the cumulative /queries totals at the last check.
	prev map[string][2]uint64
}

func (e *runEnv) serverArgs(in *Inputs, f serveFlags, dataFile, walDir string) []string {
	args := []string{
		"-addr", "127.0.0.1:0",
		"-threads", strconv.Itoa(Threads()),
		"-window", strconv.Itoa(in.Spec.Window),
		"-sub-queue", strconv.Itoa(subQueue),
	}
	if dataFile != "" {
		args = append(args, "-data", dataFile)
	}
	if f.wal {
		args = append(args, "-wal-dir", walDir, "-fsync", "interval")
		if f.snapshotEvery != 0 {
			args = append(args, "-snapshot-every", strconv.Itoa(f.snapshotEvery))
		}
	}
	if f.tracer {
		args = append(args, "-debug-addr", "127.0.0.1:0")
	}
	return args
}

// open starts a server on the data file (and a fresh WAL directory) and
// registers every standing query. The returned duration is the serve
// workloads' set-up: exec to the last registration's reply.
func (e *runEnv) open(in *Inputs, f serveFlags, dataFile string) (*session, time.Duration, error) {
	s := &session{in: in}
	if f.wal {
		s.wal = e.dir("wal")
	}
	p, err := e.start(e.serverArgs(in, f, dataFile, s.wal)...)
	if err != nil {
		return nil, 0, err
	}
	s.p = p
	if s.send, err = server.Dial(p.addr); err != nil {
		s.close()
		return nil, 0, err
	}
	for _, q := range in.Queries {
		if err := s.send.Register(q.Name, q.Algo, q.G); err != nil {
			s.close()
			return nil, 0, fmt.Errorf("register %s: %w", q.Name, err)
		}
	}
	setup := time.Since(p.started)
	if err := s.subscribe(); err != nil {
		s.close()
		return nil, 0, err
	}
	return s, setup, nil
}

func (s *session) subscribe() error {
	sub, err := server.Dial(s.p.addr, server.DialConfig{DeltaBuffer: deltaBuffer})
	if err != nil {
		return err
	}
	s.sub = sub
	for _, q := range s.in.Queries[:s.subscribed()] {
		if err := sub.Subscribe(q.Name); err != nil {
			return fmt.Errorf("subscribe %s: %w", q.Name, err)
		}
	}
	return nil
}

func (s *session) subscribed() int {
	n := s.in.Spec.Subscribed
	if n == 0 {
		n = 1 // library workloads climbing the ladder's server rungs
	}
	if n > len(s.in.Queries) {
		n = len(s.in.Queries)
	}
	return n
}

// close drops the connections, kills the server and removes its WAL
// directory.
func (s *session) close() {
	if s.send != nil {
		s.send.Close()
	}
	if s.sub != nil {
		s.sub.Close()
	}
	s.p.kill()
	if s.wal != "" {
		os.RemoveAll(s.wal)
	}
}

// trigger names what one latency sample belongs to: the delta one update
// of the latency pass (by position) produced on one subscribed query.
// Every latency pass sends the same updates in the same order, so every
// pass yields one sample for each of the same triggers.
type trigger struct {
	k     int32
	query string
}

type sample struct {
	trigger
	d time.Duration
}

// collector drains the subscriber's deltas while a pass runs: totals per
// subscribed query and, for an open-loop pass, one latency sample per
// delta.
type collector struct {
	s       *session
	pos     map[string]uint64
	neg     map[string]uint64
	lastSrv uint64 // server-side drop counter carried on the newest delta

	// Open-loop schedule (zero interval: no latency samples).
	t0       time.Time
	interval time.Duration
	frame    int
	samples  []sample

	stop chan struct{}
	done chan struct{}
}

func (s *session) collect() *collector {
	return &collector{s: s, pos: map[string]uint64{}, neg: map[string]uint64{}, stop: make(chan struct{}), done: make(chan struct{})}
}

func (c *collector) run() {
	go func() {
		defer close(c.done)
		ch := c.s.sub.Deltas()
		for {
			select {
			case d, ok := <-ch:
				if !ok {
					return
				}
				c.take(d, time.Now())
			case <-c.stop:
				// The subscriber's own flush barrier has returned, so every
				// delta of the pass is already buffered: sweep and finish.
				for {
					select {
					case d, ok := <-ch:
						if !ok {
							return
						}
						c.take(d, time.Now())
					default:
						return
					}
				}
			}
		}
	}()
}

func (c *collector) take(d server.Delta, now time.Time) {
	c.pos[d.Query] += d.Pos
	c.neg[d.Query] += d.Neg
	c.lastSrv = d.Dropped
	if c.interval > 0 {
		if k, ok := c.s.pos[d.Update]; ok {
			due := c.t0.Add(time.Duration(int(k)/c.frame) * c.interval)
			c.samples = append(c.samples, sample{trigger{k, d.Query}, now.Sub(due)})
		}
	}
}

// finish waits for the pass's last delta: the subscriber connection's
// flush reply queues behind every delta already fanned out to it.
func (c *collector) finish() error {
	err := c.s.sub.Flush()
	close(c.stop)
	<-c.done
	return err
}

// closedLoop sends one round trip — the session's pass, or a prefix of it
// — in frames of closedFrame, each sent when the previous one's reply has
// arrived, with a flush barrier after each half. It returns the wall time
// from the first send to the last barrier's reply. rec, when non-nil,
// records a client-side span around every call.
func (s *session) closedLoop(r *Result, what string, in *Inputs, rec *spanRecorder, parent int) (time.Duration, *collector, error) {
	c := s.collect()
	c.run()
	t0 := time.Now()
	for _, half := range []stream.Stream{in.Fwd, in.Bwd} {
		for _, frame := range frames(half, closedFrame) {
			sp := rec.begin("send_rtt", parent)
			n, err := s.send.Send(frame)
			rec.end(sp)
			if err != nil {
				c.finish()
				return 0, nil, fmt.Errorf("%s: send: %w", what, err)
			}
			if n != len(frame) {
				r.failf("%s: server admitted %d of %d updates", what, n, len(frame))
			}
		}
		sp := rec.begin("flush_rtt", parent)
		err := s.send.Flush()
		rec.end(sp)
		if err != nil {
			c.finish()
			return 0, nil, fmt.Errorf("%s: flush: %w", what, err)
		}
	}
	wall := time.Since(t0)
	sp := rec.begin("delta_wait", parent)
	err := c.finish()
	rec.end(sp)
	if err != nil {
		return 0, nil, fmt.Errorf("%s: subscriber flush: %w", what, err)
	}
	r.attempt(in.Updates())
	return wall, c, nil
}

// snapshotCadence is the server's default -snapshot-every.
const snapshotCadence = 65536

// A periodic snapshot stalls ingestion for as long as writing the graph
// takes — about half a pass of serve_ingest. Three things keep that from
// making the numbers flip between two values from run to run:
//
//   - padLog puts the log at a fixed phase of the cadence before the
//     timed passes, so the same passes hold a snapshot in every run and
//     none falls on a pass boundary;
//   - a pass's wall time has its snapshots' duration (the server's own
//     snapshot stage clock) taken out, and throughput puts it back at the
//     long-run rate of one mean snapshot per cadence, so the median over
//     passes is not a choice between "a pass with one" and "one without";
//   - settle places the latency passes between two snapshots: a phase of
//     a few seconds holds one stall or none, and p95 would report which.

// sinceSnapshot is how many records the log holds past the newest
// snapshot.
func (p *serverProc) sinceSnapshot() (int, error) {
	m, err := p.counters()
	if err != nil {
		return 0, err
	}
	return int(m["paracosm_wal_last_lsn"] - m["paracosm_wal_snapshot_last_lsn"]), nil
}

// snapshotClock returns the server's cumulative snapshot count and time.
func (p *serverProc) snapshotClock() (n float64, total time.Duration, err error) {
	m, err := p.counters()
	if err != nil {
		return 0, 0, err
	}
	return m["paracosm_stage_snapshot_seconds_count"], time.Duration(m["paracosm_stage_snapshot_seconds_sum"] * float64(time.Second)), nil
}

// filler sends an untimed shortened round trip of 2m updates.
func (s *session) filler(r *Result, m int) error {
	_, c, err := s.closedLoop(r, "log filler", s.in.prefix(m), nil, 0)
	if err != nil {
		return err
	}
	s.checkDelivery(r, "log filler", c, nil, false)
	return nil
}

// padLog brings the log to half a pass past a multiple of the pass
// length, when passes divide the cadence evenly: every snapshot of the
// timed passes then falls mid-pass.
func (s *session) padLog(r *Result) error {
	u := s.in.Updates()
	if snapshotCadence%u != 0 {
		return nil
	}
	since, err := s.p.sinceSnapshot()
	if err != nil {
		return err
	}
	pad := ((u/2-since)%u + u) % u
	if pad/2 == 0 {
		return nil
	}
	return s.filler(r, pad/2)
}

// settle makes sure the next need updates cross no periodic snapshot,
// sending filler until the one in the way has been written.
func (s *session) settle(r *Result, need int) error {
	for try := 0; try < 8; try++ {
		since, err := s.p.sinceSnapshot()
		if err != nil {
			return err
		}
		if since+need+closedFrame*4 < snapshotCadence {
			return nil
		}
		fill := (snapshotCadence-since)/2 + closedFrame
		if fill > len(s.in.Fwd) {
			fill = len(s.in.Fwd)
		}
		if err := s.filler(r, fill); err != nil {
			return err
		}
	}
	return fmt.Errorf("no snapshot-free stretch of %d updates found", need)
}

// openLoop sends the latency round trip — the first m insertions of the
// hold-out set in the dataset's order and their inverses — in frames of
// openFrame on a fixed schedule, whatever the server's pace. Each delta's
// latency runs from when its trigger's frame was due, so time a stalled
// server makes later frames wait counts. It returns the latency samples
// and how late the generator itself ran. m must not change between calls.
func (s *session) openLoop(r *Result, m int) (samples []sample, lateness []time.Duration, c *collector, err error) {
	lat := *s.in
	lat.Fwd, lat.Bwd = s.in.LatFwd, s.in.LatBwd
	short := lat.prefix(m)
	pass := append(append(make(stream.Stream, 0, 2*len(short.Fwd)), short.Fwd...), short.Bwd...)
	if s.pos == nil {
		s.pos = make(map[stream.Update]int32, len(pass))
		for k, u := range pass {
			s.pos[u] = int32(k)
		}
	}
	c = s.collect()
	c.interval = time.Duration(float64(openFrame) / float64(s.in.Spec.Rate) * float64(time.Second))
	c.frame = openFrame
	c.t0 = time.Now().Add(2 * time.Millisecond)
	c.run()
	for k, frame := range frames(pass, openFrame) {
		due := c.t0.Add(time.Duration(k) * c.interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lateness = append(lateness, time.Since(due))
		n, err := s.send.Send(frame)
		if err != nil {
			c.finish()
			return nil, nil, nil, fmt.Errorf("open loop: send: %w", err)
		}
		if n != len(frame) {
			r.failf("open loop: server admitted %d of %d updates", n, len(frame))
		}
	}
	if err := s.send.Flush(); err != nil {
		c.finish()
		return nil, nil, nil, fmt.Errorf("open loop: flush: %w", err)
	}
	if err := c.finish(); err != nil {
		return nil, nil, nil, fmt.Errorf("open loop: subscriber flush: %w", err)
	}
	r.attempt(len(pass))
	return c.samples, lateness, c, nil
}

// checkDelivery gates what the subscriber saw during one pass: nothing
// dropped on either side of the wire, and — when ref is given — each
// subscribed query's delivered ΔM equal to the sequential engine's.
// Without ref (a shortened round trip) delivered ΔM⁺ must equal ΔM⁻.
func (s *session) checkDelivery(r *Result, what string, c *collector, ref []totals, exact bool) {
	if c.lastSrv != 0 {
		r.failf("%s: server dropped %d deltas on the subscriber queue", what, c.lastSrv)
	}
	if d := s.sub.Dropped(); d != 0 {
		r.failf("%s: subscriber buffer dropped %d deltas", what, d)
	}
	for i, q := range s.in.Queries[:s.subscribed()] {
		pos, neg := c.pos[q.Name], c.neg[q.Name]
		switch {
		case ref != nil && exact:
			if pos != ref[i].PosF+ref[i].PosB || neg != ref[i].NegF+ref[i].NegB {
				r.failf("%s: query %s: delivered +%d/-%d, sequential engine +%d/-%d", what, q.Name, pos, neg, ref[i].PosF+ref[i].PosB, ref[i].NegF+ref[i].NegB)
			}
		case pos != neg:
			r.failf("%s: query %s: delivered +%d/-%d over a round trip", what, q.Name, pos, neg)
		}
	}
}

// queryTotals reads every query's cumulative ΔM⁺/ΔM⁻ from /queries.
func (p *serverProc) queryTotals() (map[string][2]uint64, error) {
	code, body, err := p.get("/queries?by=name")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/queries: status %d", code)
	}
	var rows []server.QueryRow
	if err := json.Unmarshal(body, &rows); err != nil {
		return nil, fmt.Errorf("/queries: %w", err)
	}
	out := make(map[string][2]uint64, len(rows))
	for _, row := range rows {
		out[row.Name] = [2]uint64{row.Positive, row.Negative}
	}
	return out, nil
}

// checkServed gates every query's totals over the passes since the last
// check on passes × the sequential engine's, read from the server's own
// /queries (so it needs the tracer's debug address).
func (s *session) checkServed(r *Result, what string, ref []totals, passes int, exact bool) error {
	cur, err := s.p.queryTotals()
	if err != nil {
		return err
	}
	for i, q := range s.in.Queries {
		got, ok := cur[q.Name]
		if !ok {
			r.failf("%s: query %s missing from /queries", what, q.Name)
			continue
		}
		pos, neg := got[0]-s.prev[q.Name][0], got[1]-s.prev[q.Name][1]
		wantPos := uint64(passes) * (ref[i].PosF + ref[i].PosB)
		wantNeg := uint64(passes) * (ref[i].NegF + ref[i].NegB)
		if exact && (pos != wantPos || neg != wantNeg) || !exact && pos != neg {
			r.failf("%s: query %s: served +%d/-%d over %d passes, sequential engine +%d/-%d", what, q.Name, pos, neg, passes, wantPos, wantNeg)
		}
	}
	s.prev = cur
	return nil
}

// writeDataFile writes the base graph where `serve -data` can read it.
func (e *runEnv) writeDataFile(in *Inputs) (string, error) {
	path := filepath.Join(e.scratch, "data_graph.txt")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := in.Base.Write(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// recovery measures crash recovery: a fresh WAL directory with periodic
// snapshots off (so the replay length is exactly what was sent, however
// the ingest loop grouped it), one full pass sent and flushed, kill -9,
// then restarts without -data, each timed from exec to the server's
// readiness announcement and confirmed by /healthz. Every restart replays
// the same log, since a killed server never writes a closing snapshot.
func (e *runEnv) recovery(r *Result, in *Inputs, dataFile string, ref []totals, reps int) ([]time.Duration, error) {
	f := serveFlags{wal: true, tracer: true, snapshotEvery: -1}
	s, _, err := e.open(in, f, dataFile)
	if err != nil {
		return nil, err
	}
	defer s.close()
	_, c, err := s.closedLoop(r, "recovery feed", in, nil, 0)
	if err != nil {
		return nil, err
	}
	s.checkDelivery(r, "recovery feed", c, ref, true)
	s.send.Close()
	s.sub.Close()
	s.send, s.sub = nil, nil

	var out []time.Duration
	for i := 0; i < reps; i++ {
		s.p.kill()
		p, err := e.start(e.serverArgs(in, f, "", s.wal)...)
		if err != nil {
			return nil, fmt.Errorf("restart from the WAL: %w", err)
		}
		s.p = p
		out = append(out, p.readyAt.Sub(p.started))
		r.attempt(1)
		if code, _, err := p.get("/healthz"); err != nil || code != http.StatusOK {
			r.failf("recovery: /healthz after the readiness line: status %d, err %v", code, err)
		}
		m, err := p.counters()
		if err != nil {
			return nil, err
		}
		want := float64(in.Updates() + len(in.Queries))
		if got := m["paracosm_wal_replayed_records_total"]; got != want {
			r.failf("recovery: replayed %v log records, sent %v", got, want)
		}
		s.prev = nil
		if err := s.checkServed(r, "recovery", ref, 1, true); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runServe measures a serve workload end to end.
func runServe(in *Inputs, o Options) (*Result, error) {
	r := newResult(in, o.Seconds, false)
	pl := newPlan(o.Seconds)
	env, err := newRunEnv(o)
	if err != nil {
		return nil, err
	}
	defer env.cleanup()
	dataFile, err := env.writeDataFile(in)
	if err != nil {
		return nil, err
	}

	// Set-up, several times, as deployed: WAL on, tracer on, default
	// snapshot cadence. The last instance is the one measured.
	phase := newPhases(r)
	deployed := serveFlags{wal: true, tracer: true}
	var s *session
	var setups []time.Duration
	for i := 0; i < pl.reps; i++ {
		if s != nil {
			s.close()
		}
		var d time.Duration
		if s, d, err = env.open(in, deployed, dataFile); err != nil {
			return nil, err
		}
		setups = append(setups, d)
	}
	defer s.close()
	phase.mark("setup")

	// The single-threaded baseline of the same job, in this process: one
	// sequential engine per query, which is also the oracle.
	seq, err := newEngines(in, in.Base.Clone(), true, seqOpts())
	if err != nil {
		return nil, err
	}
	defer seq.close()

	if err := s.padLog(r); err != nil {
		return nil, err
	}
	if s.prev, err = s.p.queryTotals(); err != nil { // filler is not part of what checkServed gates
		return nil, err
	}
	var ref []totals
	var cpus, snaps []time.Duration
	var peaks []float64
	pid := s.p.cmd.Process.Pid
	served := 0
	times, err := interleave(pl.passBudget, pl.minPasses,
		func(bool) (time.Duration, error) {
			// With matching this cheap one round trip is a tenth of a
			// second; a sample is as many as fill 0.3 s, averaged.
			var total time.Duration
			n := 0
			for ; total < 300*time.Millisecond; n++ {
				d, tot, err := seq.pass()
				if err != nil {
					return 0, err
				}
				if ref == nil {
					ref = tot
				}
				checkTotals(r, "sequential pass", in, ref, tot, true)
				seq.checkRoundTrip(r, "sequential pass")
				r.attempt(in.Updates())
				total += d
			}
			return total / time.Duration(n), nil
		},
		func(timed bool) (time.Duration, error) {
			resetPeakRSS(pid)
			c0, err := procCPU(pid)
			if err != nil {
				return 0, err
			}
			_, sn0, err := s.p.snapshotClock()
			if err != nil {
				return 0, err
			}
			d, c, err := s.closedLoop(r, "served pass", in, nil, 0)
			if err != nil {
				return 0, err
			}
			_, sn1, err := s.p.snapshotClock()
			if err != nil {
				return 0, err
			}
			c1, err := procCPU(pid)
			if err != nil {
				return 0, err
			}
			if timed {
				cpus = append(cpus, c1-c0)
				if sn1 > sn0 {
					snaps = append(snaps, sn1-sn0)
				}
				rss, err := peakRSSMB(pid)
				if err != nil {
					return 0, err
				}
				peaks = append(peaks, rss)
			}
			d -= sn1 - sn0
			s.checkDelivery(r, "served pass", c, ref, true)
			served++
			return d, nil
		})
	if err != nil {
		return nil, err
	}
	if err := s.checkServed(r, "served passes", ref, served, true); err != nil {
		return nil, err
	}
	seqT, srvT := times[0], times[1]
	r.Passes = map[string][]float64{"sequential": seconds(seqT), "deployed": seconds(srvT)}
	phase.mark("passes")

	// Latency, open loop at the workload's fixed rate, each pass in a
	// stretch of the log that holds no periodic snapshot. Every pass sends
	// the same updates in the same order, so each trigger gets one sample
	// per pass; a trigger's latency is its median over the passes, and the
	// run reports percentiles over the triggers. A stall of the box then
	// has to hit the same update in most passes to move a percentile,
	// where a percentile per pass is moved by any stall in that pass.
	// A latency pass is the whole round trip where that takes at most two
	// seconds at the fixed rate, and otherwise its first second: m
	// insertions, m deletions.
	byTrigger := make(map[trigger][]time.Duration)
	var late []time.Duration
	nSamples, nPasses := 0, 0
	m := len(in.LatFwd)
	if m > in.Spec.Rate {
		m = in.Spec.Rate / 2
	}
	for n := 0; n < pl.openPasses; n++ {
		if err := s.settle(r, 2*m); err != nil {
			return nil, err
		}
		sm, lt, c, err := s.openLoop(r, m)
		if err != nil {
			return nil, err
		}
		s.checkDelivery(r, "open-loop pass", c, nil, false)
		if len(sm) == 0 {
			r.failf("open-loop pass: no delta reached the subscriber, so there is no latency to report")
			continue
		}
		nSamples += len(sm)
		nPasses++
		late = append(late, lt...)
		for _, x := range sm {
			byTrigger[x.trigger] = append(byTrigger[x.trigger], x.d)
		}
	}
	typical := make([]time.Duration, 0, len(byTrigger))
	for _, ds := range byTrigger {
		typical = append(typical, durQuantile(ds, 0.5))
	}
	if err := s.checkServed(r, "open-loop passes", ref, 0, false); err != nil {
		return nil, err
	}
	// What a snapshot costs: the median of those the timed passes held,
	// or where they held none (a run shorter than the cadence) the mean of
	// the few the server has written since boot.
	snapN, snapTotal, err := s.p.snapshotClock()
	if err != nil {
		return nil, err
	}
	snapCost := ratio(snapTotal.Seconds(), snapN)
	if len(snaps) > 0 {
		snapCost = median(seconds(snaps))
	}
	s.close()
	phase.mark("latency")

	recov, err := env.recovery(r, in, dataFile, ref, pl.reps)
	if err != nil {
		return nil, err
	}

	phase.mark("recovery")

	n := float64(in.Updates())
	r.set("updates_per_s", n/(median(seconds(srvT))+snapCost*n/snapshotCadence))
	r.set("seq_updates_per_s", n/median(seconds(seqT)))
	r.set("cpu_us_per_update", median(seconds(cpus))*1e6/n)
	r.set("detect_latency_p50_ms", ms(durQuantile(typical, 0.50)))
	r.set("detect_latency_p95_ms", ms(durQuantile(typical, 0.95)))
	r.set("recovery_s", median(seconds(recov)))
	r.set("rss_peak_mb", median(peaks))
	r.set("setup_s", median(seconds(setups)))

	r.note("passes", float64(len(srvT)), "count")
	r.note("updates_per_pass", n, "count")
	r.note("latency_samples", float64(nSamples), "count")
	r.note("latency_passes", float64(nPasses), "count")
	r.note("latency_triggers", float64(len(typical)), "count")
	r.note("open_loop_rate", float64(in.Spec.Rate), "updates/s")
	r.note("generator_lateness_p95_ms", ms(durQuantile(late, 0.95)), "ms")
	r.note("pass_spread_served", spread(seconds(srvT)), "ratio")
	r.note("snapshots", snapN, "count")
	r.note("snapshot_ms", snapCost*1000, "ms")
	r.note("pass_spread_seq", spread(seconds(seqT)), "ratio")
	r.Env.LoadEnd = loadavg()
	return r, nil
}
