package server

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"paracosm/internal/core"
	"paracosm/internal/graph"
	"paracosm/internal/obs"
	"paracosm/internal/stream"
	"paracosm/internal/wal"
)

// startWALServer starts a server in WAL mode and blocks until recovery
// completes (unlike plain Start, which returns mid-replay).
func startWALServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv := startTestServer(t, uniformGraph(0), cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.WaitReady(ctx); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	return srv
}

// streamThrough registers (optionally) and streams s via one client,
// flushing before return so every update is applied server-side.
func streamThrough(t *testing.T, srv *Server, register bool, s stream.Stream) {
	t.Helper()
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if register {
		if err := cl.Register("q", "GraphFlow", singleEdgeQuery(t)); err != nil {
			t.Fatal(err)
		}
	}
	if len(s) > 0 {
		if _, err := cl.Send(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestServerRecoveryGracefulRestart checks the snapshot path end to end:
// a graceful Close writes a final snapshot, and a restart with an EMPTY
// base graph — proving the snapshot, not the caller's graph, supplies
// the state — resumes with identical standing queries, stats and Seq
// watermarks, and keeps matching the sequential oracle on new updates.
func TestServerRecoveryGracefulRestart(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(11))
	g := uniformGraph(30)
	q := singleEdgeQuery(t)
	full := insertOnlyStream(rng, g, 160, 1)
	pre, post := full[:100], full[100:]
	wantPos, wantNeg := oracleTotals(t, g, q, full)

	cfg := Config{WALDir: dir, Fsync: wal.SyncOff, SnapshotEvery: -1}

	srv := startTestServer(t, g, cfg)
	if err := srv.WaitReady(context.Background()); err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Register("q", "GraphFlow", q); err != nil {
		t.Fatal(err)
	}
	// A register/deregister pair must also survive the restart — as its
	// absence.
	if err := cl.Register("doomed", "Symbi", singleEdgeQuery(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Send(pre); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Deregister("doomed"); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	// WAL mode: queries are durable server state, so the disconnect must
	// NOT drop them.
	if n := srv.NumQueries(); n != 1 {
		t.Fatalf("queries after disconnect = %d, want 1", n)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2 := startWALServer(t, cfg) // empty base graph: the snapshot must win
	if n := srv2.NumQueries(); n != 1 {
		t.Fatalf("queries after restart = %d, want 1", n)
	}
	// Graceful restart loads the final snapshot; nothing should need
	// replaying.
	if n := srv2.walReplayed.Load(); n != 0 {
		t.Fatalf("replayed %d records after graceful close, want 0", n)
	}

	// Stream the tail and compare cumulative totals with the full oracle:
	// recovered graph + stats baseline + new deltas must be exact.
	cl2, err := Dial(srv2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if err := cl2.Subscribe("q"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl2.Send(post); err != nil {
		t.Fatal(err)
	}
	if err := cl2.Flush(); err != nil {
		t.Fatal(err)
	}
	st := srv2.multi.Stats()["q"]
	if st.Positive != wantPos || st.Negative != wantNeg {
		t.Fatalf("recovered totals (+%d,-%d), oracle (+%d,-%d)", st.Positive, st.Negative, wantPos, wantNeg)
	}

	// Seq watermark continuity: every pre-restart insert produced one
	// nonzero delta, so the first post-restart delta is len(pre)+1.
	var first uint64
	for d := range cl2.Deltas() {
		first = d.Seq
		break
	}
	if first != uint64(len(pre))+1 {
		t.Fatalf("first Seq after restart = %d, want %d", first, len(pre)+1)
	}
}

// TestServerRecoveryCrashReplay checks the log path: a crash-equivalent
// shutdown (no final snapshot) loses nothing — restart replays the tail
// beyond the last periodic snapshot through the live engine paths, and
// totals equal the uninterrupted sequential oracle.
func TestServerRecoveryCrashReplay(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(13))
	g := uniformGraph(40)
	q := singleEdgeQuery(t)
	full := insertOnlyStream(rng, g, 200, 1)
	wantPos, wantNeg := oracleTotals(t, g, q, full)

	// The snapshot cadence is checked once per ingestion batch, so where the
	// log tail starts depends on the batch boundaries. The test owns them:
	// BatchMax 1 makes every batch one update and the gate releases them
	// one at a time, so periodic snapshots fall after updates 64, 128 and
	// 192 exactly and the tail that outlives the last one is 8 records.
	const every = 64
	gate := make(chan struct{})
	crashCfg := Config{WALDir: dir, Fsync: wal.SyncOff, SnapshotEvery: every, BatchMax: 1, ingestGate: gate, noFinalSnapshot: true}
	srv := startTestServer(t, g, crashCfg)
	if err := srv.WaitReady(context.Background()); err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Register("q", "GraphFlow", q); err != nil {
		t.Fatal(err)
	}
	if n, err := cl.Send(full); err != nil || n != len(full) {
		t.Fatalf("send: accepted %d of %d, %v", n, len(full), err)
	}
	for i := range full {
		// The loop takes a token only once batch i-1 — and the snapshot it
		// may have triggered — is done, so after this send exactly i updates
		// are applied.
		gate <- struct{}{}
		if i%every == 0 {
			if got, want := srv.walSnaps.Load(), uint64(1+i/every); got != want { // initial + periodic
				t.Fatalf("after %d updates: %d snapshots, want %d", i, got, want)
			}
		}
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	if got, want := srv.walSnaps.Load(), uint64(1+len(full)/every); got != want {
		t.Fatalf("after %d updates: %d snapshots, want %d", len(full), got, want)
	}
	if err := srv.Close(); err != nil { // crash-equivalent: no final snapshot
		t.Fatal(err)
	}

	srv2 := startWALServer(t, Config{WALDir: dir, Fsync: wal.SyncOff, SnapshotEvery: -1})
	if n := srv2.NumQueries(); n != 1 {
		t.Fatalf("queries after crash restart = %d, want 1", n)
	}
	if got, want := srv2.walReplayed.Load(), uint64(len(full)%every); got != want {
		t.Fatalf("crash restart replayed %d records, want the %d logged after the last snapshot", got, want)
	}
	st := srv2.multi.Stats()["q"]
	if st.Positive != wantPos || st.Negative != wantNeg {
		t.Fatalf("recovered totals (+%d,-%d), oracle (+%d,-%d)", st.Positive, st.Negative, wantPos, wantNeg)
	}
	// The metrics surface must expose the recovery counters.
	var sb strings.Builder
	if err := srv2.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"paracosm_wal_records_total", "paracosm_wal_replayed_records_total", "paracosm_wal_snapshots_total", "paracosm_wal_last_lsn"} {
		if !strings.Contains(sb.String(), series) {
			t.Errorf("WriteMetrics missing %s", series)
		}
	}
}

// TestServerReconnectSeqGapAcrossRestart is the exactly-once-detection
// contract: a subscriber that disconnects, misses deltas, crashes the
// server and resubscribes after restart sees a Seq whose gap from its
// last delivered Seq counts EXACTLY the missed frames.
func TestServerReconnectSeqGapAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(17))
	g := uniformGraph(50)
	full := insertOnlyStream(rng, g, 90, 1)
	// Phase A: 40 subscribed deltas. Phase B: 25 missed while disconnected.
	// Phase C: post-restart, the next delta closes the gap.
	a, b, c := full[:40], full[40:65], full[65:]

	cfg := Config{WALDir: dir, Fsync: wal.SyncOff, SnapshotEvery: -1, noFinalSnapshot: true}
	srv := startTestServer(t, g, cfg)
	if err := srv.WaitReady(context.Background()); err != nil {
		t.Fatal(err)
	}

	clA, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := clA.Register("q", "GraphFlow", singleEdgeQuery(t)); err != nil {
		t.Fatal(err)
	}
	if err := clA.Subscribe("q"); err != nil {
		t.Fatal(err)
	}
	if _, err := clA.Send(a); err != nil {
		t.Fatal(err)
	}
	if err := clA.Flush(); err != nil {
		t.Fatal(err)
	}
	var lastSeqA uint64
	drain := func() {
		for {
			select {
			case d := <-clA.Deltas():
				lastSeqA = d.Seq
			default:
				return
			}
		}
	}
	drain()
	if lastSeqA != uint64(len(a)) {
		t.Fatalf("lastSeqA = %d, want %d", lastSeqA, len(a))
	}
	clA.Close() // subscriber gone; the query stays (WAL mode)

	// Phase B: deltas produced with no subscriber still advance the
	// watermark — they are "missed", not "unnumbered".
	streamThrough(t, srv, false, b)
	if err := srv.Close(); err != nil { // crash: no final snapshot
		t.Fatal(err)
	}

	srv2 := startWALServer(t, cfg)
	clC, err := Dial(srv2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer clC.Close()
	if err := clC.Subscribe("q"); err != nil {
		t.Fatal(err)
	}
	if _, err := clC.Send(c); err != nil {
		t.Fatal(err)
	}
	if err := clC.Flush(); err != nil {
		t.Fatal(err)
	}
	d := <-clC.Deltas()
	if want := uint64(len(a)+len(b)) + 1; d.Seq != want {
		t.Fatalf("first Seq after reconnect = %d, want %d", d.Seq, want)
	}
	if gap := d.Seq - lastSeqA - 1; gap != uint64(len(b)) {
		t.Fatalf("detected gap = %d missed deltas, want exactly %d", gap, len(b))
	}
}

// TestServerHealthzDuringReplay holds replay at the recoverGate seam and
// probes the readiness split: /healthz must answer 503 "recovering"
// while the log tail is being applied, 200 "ok" after, and WaitReady
// must block exactly as long.
func TestServerHealthzDuringReplay(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(19))
	g := uniformGraph(30)
	full := insertOnlyStream(rng, g, 80, 1)

	cfg := Config{WALDir: dir, Fsync: wal.SyncOff, SnapshotEvery: -1, noFinalSnapshot: true}
	srv := startTestServer(t, g, cfg)
	if err := srv.WaitReady(context.Background()); err != nil {
		t.Fatal(err)
	}
	streamThrough(t, srv, true, full)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	cfg2 := cfg
	cfg2.recoverGate = gate
	cfg2.BatchMax = 16 // several gated batches, not one
	srv2 := startTestServer(t, uniformGraph(0), cfg2)
	mux := obs.NewMuxReady(nil, srv2.Ready)

	probe := func() int {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		return rec.Code
	}
	if srv2.Ready() {
		t.Fatal("Ready before replay released")
	}
	if code := probe(); code != 503 {
		t.Fatalf("/healthz during replay = %d, want 503", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	if err := srv2.WaitReady(ctx); err == nil {
		t.Fatal("WaitReady returned while replay was gated")
	}
	cancel()

	close(gate) // release every batch
	if err := srv2.WaitReady(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code := probe(); code != 200 {
		t.Fatalf("/healthz after replay = %d, want 200", code)
	}
	// Every update plus the registration record replays.
	if got := srv2.walReplayed.Load(); got != uint64(len(full))+1 {
		t.Fatalf("replayed %d records, want %d", got, len(full)+1)
	}
}

// TestServerWALDeregisterWithoutOwnership: durable queries outlive their
// registering connection, so any client may deregister them in WAL mode.
func TestServerWALDeregisterWithoutOwnership(t *testing.T) {
	cfg := Config{WALDir: t.TempDir(), Fsync: wal.SyncOff, SnapshotEvery: -1}
	srv := startWALServer(t, cfg)
	streamThrough(t, srv, true, nil) // registers "q", disconnects
	if n := srv.NumQueries(); n != 1 {
		t.Fatalf("queries = %d, want 1", n)
	}
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Deregister("q"); err != nil {
		t.Fatalf("non-owner deregister in WAL mode: %v", err)
	}
	if n := srv.NumQueries(); n != 0 {
		t.Fatalf("queries after deregister = %d, want 0", n)
	}
	if err := cl.Deregister("q"); err == nil {
		t.Fatal("deregistering an unknown query succeeded")
	}
}

// churnStream returns count updates over g's vertices that apply in order:
// fresh edge inserts, each deleted again one to three updates later about
// half of the time, so windows of the stream hold insert/delete pairs for
// the coalescer to annihilate.
func churnStream(rng *rand.Rand, g *graph.Graph, count int) stream.Stream {
	sim := g.Clone()
	n := sim.NumVertices()
	var s stream.Stream
	type due struct {
		at   int
		u, v graph.VertexID
	}
	var pending []due
	for len(s) < count {
		if len(pending) > 0 && pending[0].at <= len(s) {
			d := pending[0]
			pending = pending[1:]
			sim.RemoveEdge(d.u, d.v)
			s = append(s, stream.Update{Op: stream.DeleteEdge, U: d.u, V: d.v})
			continue
		}
		u, v := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
		if u == v || !sim.AddEdge(u, v, 0) {
			continue
		}
		s = append(s, stream.Update{Op: stream.AddEdge, U: u, V: v})
		if rng.Intn(2) == 0 {
			pending = append(pending, due{len(s) + rng.Intn(3), u, v})
		}
	}
	return s
}

// TestServerWindowedCrashReplay covers -window n with -wal-dir: the live
// server coalesces within the batches its ingestion loop cut (one update
// each here, through the ingestGate seam, so nothing coalesces live),
// while recovery replays the log in BatchMax batches, which coalesce
// their windows' insert/delete pairs away. The contract still holds after
// a crash — the recovered graph and the query's net totals equal the
// sequential oracle's — but the Seq watermark, which advances once per
// nonzero delta, is exact only at -window ≤ 1: replay produces no delta
// for an annihilated pair, so under Window(8) the recovered watermark
// falls behind the one the crashed server handed out (DESIGN.md §16).
func TestServerWindowedCrashReplay(t *testing.T) {
	for _, window := range []int{1, 8} {
		t.Run(fmt.Sprintf("window%d", window), func(t *testing.T) { windowedCrashReplay(t, window) })
	}
}

func windowedCrashReplay(t *testing.T, window int) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(23))
	g := uniformGraph(40)
	q := singleEdgeQuery(t)
	full := churnStream(rng, g, 120)
	wantPos, wantNeg := oracleTotals(t, g, q, full)
	want := g.Clone()
	for _, upd := range full {
		if err := upd.Apply(want); err != nil {
			t.Fatal(err)
		}
	}

	engine := []core.Option{core.Window(window)}
	gate := make(chan struct{})
	srv := startTestServer(t, g, Config{WALDir: dir, Fsync: wal.SyncOff, SnapshotEvery: -1, BatchMax: 1,
		Engine: engine, ingestGate: gate, noFinalSnapshot: true})
	if err := srv.WaitReady(context.Background()); err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Register("q", "GraphFlow", q); err != nil {
		t.Fatal(err)
	}
	if n, err := cl.Send(full); err != nil || n != len(full) {
		t.Fatalf("send: accepted %d of %d, %v", n, len(full), err)
	}
	for range full {
		gate <- struct{}{} // one live batch of one update
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	srv.mu.Lock()
	liveSeq := srv.produced["q"]
	srv.mu.Unlock()
	if liveSeq != uint64(len(full)) {
		t.Fatalf("live Seq %d, want one nonzero delta per update: %d", liveSeq, len(full))
	}
	if err := srv.Close(); err != nil { // crash: no final snapshot
		t.Fatal(err)
	}

	srv2 := startWALServer(t, Config{WALDir: dir, Fsync: wal.SyncOff, SnapshotEvery: -1, Engine: engine})
	if got, want := srv2.walReplayed.Load(), uint64(1+len(full)); got != want {
		t.Fatalf("replayed %d records, want the registration and %d updates", got, len(full))
	}
	st := srv2.multi.Stats()["q"]
	if int64(st.Positive)-int64(st.Negative) != int64(wantPos)-int64(wantNeg) {
		t.Fatalf("recovered net total %d (+%d,-%d), oracle %d", int64(st.Positive)-int64(st.Negative), st.Positive, st.Negative, int64(wantPos)-int64(wantNeg))
	}
	err = srv2.multi.ExportState(func(got *graph.Graph, _ []core.QueryExport) error {
		if got.NumEdges() != want.NumEdges() {
			return fmt.Errorf("recovered graph has %d edges, oracle %d", got.NumEdges(), want.NumEdges())
		}
		for v := 0; v < want.NumVertices(); v++ {
			for _, nb := range want.Neighbors(graph.VertexID(v)) {
				if !got.HasEdge(graph.VertexID(v), nb.ID) {
					return fmt.Errorf("recovered graph lacks edge (%d,%d)", v, nb.ID)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	srv2.mu.Lock()
	replaySeq := srv2.produced["q"]
	srv2.mu.Unlock()
	if window <= 1 {
		if replaySeq != liveSeq {
			t.Fatalf("window %d: recovered Seq %d, live %d", window, replaySeq, liveSeq)
		}
		return
	}
	if st.Window.Annihilated == 0 || replaySeq >= liveSeq {
		t.Fatalf("window %d: replay annihilated %d pairs, recovered Seq %d, live %d: the reproduction lost its point",
			window, st.Window.Annihilated, replaySeq, liveSeq)
	}
	t.Logf("window %d: replay annihilated %d pairs; recovered Seq %d, live %d", window, st.Window.Annihilated, replaySeq, liveSeq)
}
