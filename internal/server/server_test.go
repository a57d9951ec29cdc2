package server

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"paracosm/internal/algo/algotest"
	"paracosm/internal/core"
	"paracosm/internal/graph"
	"paracosm/internal/obs"
	"paracosm/internal/query"
	"paracosm/internal/refmatch"
	"paracosm/internal/stream"
)

func startTestServer(t *testing.T, g *graph.Graph, cfg Config) *Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	s, err := Start(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// insertOnlyStream returns count distinct edge inserts among g's existing
// vertices: a stream that applies cleanly under ANY interleaving, the
// precondition for the order-insensitive multi-client oracle comparison
// (each match is reported exactly once — when its last edge arrives — so
// per-query totals are interleaving-invariant).
func insertOnlyStream(rng *rand.Rand, g *graph.Graph, count, elabels int) stream.Stream {
	sim := g.Clone()
	n := sim.NumVertices()
	var s stream.Stream
	for len(s) < count {
		u := graph.VertexID(rng.Intn(n))
		v := graph.VertexID(rng.Intn(n))
		if u == v || sim.HasEdge(u, v) {
			continue
		}
		el := graph.Label(rng.Intn(elabels))
		if !sim.AddEdge(u, v, el) {
			continue
		}
		s = append(s, stream.Update{Op: stream.AddEdge, U: u, V: v, ELabel: el})
	}
	return s
}

// oracleTotals replays s sequentially against a clone of g through the
// structure-free reference matcher.
func oracleTotals(t *testing.T, g *graph.Graph, q *query.Graph, s stream.Stream) (pos, neg uint64) {
	t.Helper()
	h := g.Clone()
	for _, upd := range s {
		p, n := refmatch.Delta(h, q, upd, refmatch.Options{})
		pos += p
		neg += n
		if err := upd.Apply(h); err != nil {
			t.Fatal(err)
		}
	}
	return pos, neg
}

// uniformGraph returns n isolated vertices, all label 0.
func uniformGraph(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddVertex(0)
	}
	return g
}

// singleEdgeQuery is the smallest query: one label-0 edge. Every label-0
// edge insert produces exactly two new matches (both orientations).
func singleEdgeQuery(t *testing.T) *query.Graph {
	t.Helper()
	q, err := query.New([]graph.Label{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := q.AddEdge(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := q.Finalize(); err != nil {
		t.Fatal(err)
	}
	return q
}

// TestServerEndToEndConcurrent is the acceptance scenario: N concurrent
// clients register distinct queries, stream interleaved update chunks,
// and each must receive exactly the deltas a sequential single-engine
// replay produces for its query over the union stream.
func TestServerEndToEndConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := algotest.RandomGraph(rng, 48, 70, 2, 1)

	const nClients = 4
	algos := []string{"GraphFlow", "Symbi", "NewSP", "TurboFlux"}
	queries := make([]*query.Graph, nClients)
	for i := range queries {
		queries[i] = algotest.RandomQuery(rng, g, 3+i%2)
		if queries[i] == nil {
			t.Skip("no query found")
		}
	}
	full := insertOnlyStream(rng, g, 400, 1)
	chunk := len(full) / nClients

	// Sequential oracle per query, over the full union stream.
	wantPos := make([]uint64, nClients)
	wantNeg := make([]uint64, nClients)
	for i, q := range queries {
		wantPos[i], wantNeg[i] = oracleTotals(t, g, q, full)
	}

	srv := startTestServer(t, g, Config{
		SubscriberQueue: 1 << 14,
		Engine:          []core.Option{core.Threads(2)},
	})

	// Phase 1 — every client registers and subscribes concurrently,
	// before anyone streams: each query must observe the full union
	// stream for the oracle comparison to hold.
	clients := make([]*Client, nClients)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failures []string
	fail := func(format string, args ...any) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	for i := 0; i < nClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := Dial(srv.Addr(), DialConfig{DeltaBuffer: 1 << 14})
			if err != nil {
				fail("client %d dial: %v", i, err)
				return
			}
			clients[i] = cl
			name := fmt.Sprintf("q%d", i)
			if err := cl.Register(name, algos[i], queries[i]); err != nil {
				fail("client %d register: %v", i, err)
				return
			}
			if err := cl.Subscribe(name); err != nil {
				fail("client %d subscribe: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	for _, f := range failures {
		t.Fatal(f)
	}
	defer func() {
		for _, cl := range clients {
			cl.Close()
		}
	}()

	// Phase 2 — all clients stream their chunks concurrently, in small
	// sub-batches so the server interleaves them, while a drainer per
	// client collects deltas.
	var sent sync.WaitGroup // all clients done enqueuing their chunk
	sent.Add(nClients)
	for i := 0; i < nClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := clients[i]
			var (
				gotPos, gotNeg, maxDrop uint64
				lastSeq                 uint64
				seqGap                  bool
				drained                 = make(chan struct{})
			)
			go func() {
				defer close(drained)
				for d := range cl.Deltas() {
					gotPos += d.Pos
					gotNeg += d.Neg
					if d.Dropped > maxDrop {
						maxDrop = d.Dropped
					}
					if d.Seq != lastSeq+1 {
						seqGap = true
					}
					lastSeq = d.Seq
				}
			}()

			own := full[i*chunk : (i+1)*chunk]
			for off := 0; off < len(own); off += 10 {
				end := off + 10
				if end > len(own) {
					end = len(own)
				}
				if n, err := cl.Send(own[off:end]); err != nil || n != end-off {
					fail("client %d send: %d, %v", i, n, err)
				}
			}
			sent.Done()
			sent.Wait() // barrier: everyone's updates are enqueued
			if err := cl.Flush(); err != nil {
				fail("client %d flush: %v", i, err)
			}
			cl.Close() // closes Deltas once the read loop drains
			<-drained

			if gotPos != wantPos[i] || gotNeg != wantNeg[i] {
				fail("client %d: deltas (+%d,-%d), oracle (+%d,-%d)", i, gotPos, gotNeg, wantPos[i], wantNeg[i])
			}
			if maxDrop != 0 {
				fail("client %d: %d deltas dropped with an oversized queue", i, maxDrop)
			}
			if seqGap {
				fail("client %d: sequence gap without drops", i)
			}
		}(i)
	}
	wg.Wait()
	for _, f := range failures {
		t.Error(f)
	}

	m := srv.Metrics()
	if m.Ingested != uint64(len(full)) || m.Invalid != 0 {
		t.Errorf("ingested %d (invalid %d), want %d (0)", m.Ingested, m.Invalid, len(full))
	}
	waitUntil(t, "queries deregistered on disconnect", func() bool { return srv.NumQueries() == 0 })
}

// TestServerDeltaSequence drives a single client over a mixed
// insert/delete stream and compares the delta notifications — update
// line, positive and negative counts — against the reference replay,
// and checks the flush barrier: after Flush returns, every delta is
// already buffered client-side (the drain below never waits).
func TestServerDeltaSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := algotest.RandomGraph(rng, 24, 50, 2, 1)
	q := algotest.RandomQuery(rng, g, 3)
	if q == nil {
		t.Skip("no query found")
	}
	s := algotest.RandomStream(rng, g, 60, 0.6, 1)

	// Reference multiset of (update line, +, -) for nonzero deltas.
	type key struct {
		line     string
		pos, neg uint64
	}
	want := map[key]int{}
	h := g.Clone()
	var wantFrames int
	for _, upd := range s {
		p, n := refmatch.Delta(h, q, upd, refmatch.Options{})
		if err := upd.Apply(h); err != nil {
			t.Fatal(err)
		}
		if p+n == 0 {
			continue
		}
		want[key{upd.String(), p, n}]++
		wantFrames++
	}

	srv := startTestServer(t, g, Config{Engine: []core.Option{core.Threads(1)}})

	cl, err := Dial(srv.Addr(), DialConfig{DeltaBuffer: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register("seq", "GraphFlow", q); err != nil {
		t.Fatal(err)
	}
	if err := cl.Subscribe("seq"); err != nil {
		t.Fatal(err)
	}
	if n, err := cl.Send(s); err != nil || n != len(s) {
		t.Fatalf("send: %d, %v", n, err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}

	// Non-blocking drain: the flush reply came through the same FIFO as
	// the deltas, so everything must already be here.
	got := map[key]int{}
	gotFrames := 0
drain:
	for {
		select {
		case d := <-cl.Deltas():
			if d.Dropped != 0 {
				t.Fatalf("deltas dropped: %d", d.Dropped)
			}
			got[key{d.Update.String(), d.Pos, d.Neg}]++
			gotFrames++
		default:
			break drain
		}
	}
	if gotFrames != wantFrames {
		t.Fatalf("got %d delta frames, want %d", gotFrames, wantFrames)
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("delta %v: got %d, want %d", k, got[k], n)
		}
	}

	// After deregistration no further deltas flow.
	if err := cl.Deregister("seq"); err != nil {
		t.Fatal(err)
	}
	if srv.NumQueries() != 0 {
		t.Fatalf("NumQueries = %d after deregister", srv.NumQueries())
	}
}

// TestServerSlowSubscriberOverflow: a subscriber that stops reading must
// overflow its bounded queue (drop-and-count) without ever stalling
// ingestion, and the drop counter must be visible through /metrics.
func TestServerSlowSubscriberOverflow(t *testing.T) {
	g := uniformGraph(300)
	q := singleEdgeQuery(t)

	tr := obs.NewTracer(1 << 16)
	srv := startTestServer(t, g, Config{
		SubscriberQueue: 2,
		Tracer:          tr,
		Engine:          []core.Option{core.Threads(1)},
	})

	// Slow subscriber: raw connection, tiny receive buffer, subscribes
	// and then never reads again.
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if tc, ok := raw.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(1 << 10)
	}

	streamer, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer streamer.Close()
	if err := streamer.Register("hot", "GraphFlow", q); err != nil {
		t.Fatal(err)
	}

	br := bufio.NewReader(raw)
	if err := WriteFrame(raw, &Frame{Type: TypeSubscribe, ID: 1, Query: "hot"}); err != nil {
		t.Fatal(err)
	}
	if f, err := ReadFrame(br, 0); err != nil || f.Type != TypeOK {
		t.Fatalf("subscribe: %+v, %v", f, err)
	}
	// From here on the subscriber reads nothing.

	rng := rand.New(rand.NewSource(7))
	updates := insertOnlyStream(rng, g, 6000, 1)
	for off := 0; off < len(updates); off += 500 {
		if n, err := streamer.Send(updates[off : off+500]); err != nil || n != 500 {
			t.Fatalf("send: %d, %v", n, err)
		}
	}
	// Ingestion must complete despite the wedged subscriber: Flush
	// returning IS the no-stall assertion.
	if err := streamer.Flush(); err != nil {
		t.Fatal(err)
	}

	m := srv.Metrics()
	if m.Ingested != uint64(len(updates)) {
		t.Fatalf("ingested %d, want %d", m.Ingested, len(updates))
	}
	if m.Deltas != uint64(len(updates)) {
		t.Fatalf("deltas %d, want %d", m.Deltas, len(updates))
	}
	if m.DeltasDropped == 0 {
		t.Fatal("slow subscriber never overflowed its queue")
	}

	// The drop counter is visible through the obs /metrics endpoint.
	dbg, err := obs.StartServer("127.0.0.1:0", tr, srv.WriteMetrics)
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()
	resp, err := http.Get("http://" + dbg.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	mre := regexp.MustCompile(`(?m)^paracosm_server_deltas_dropped_total (\d+)$`)
	sub := mre.FindSubmatch(body)
	if sub == nil {
		t.Fatalf("/metrics missing paracosm_server_deltas_dropped_total:\n%s", body)
	}
	if n, _ := strconv.Atoi(string(sub[1])); uint64(n) != m.DeltasDropped {
		t.Fatalf("/metrics reports %s drops, Metrics() reports %d", sub[1], m.DeltasDropped)
	}

	// The tracer ring carries server-class events.
	classes := map[string]bool{}
	for _, ev := range tr.Ring().Snapshot() {
		if ev.Class == "server" {
			classes[ev.Op] = true
		}
	}
	for _, op := range []string{"srv:accept", "srv:register", "srv:subscribe", "srv:ingest", "srv:drop"} {
		if !classes[op] {
			t.Errorf("tracer ring missing %s event (saw %v)", op, classes)
		}
	}
}

// TestClientSlowConsumerFlush: a client that subscribes but never
// drains Deltas must not wedge its own reply demultiplexer — Flush
// returns even when the delta volume far exceeds DeltaBuffer, with the
// overflow counted client-side (drop-and-count, like the server's
// subscriber queues).
func TestClientSlowConsumerFlush(t *testing.T) {
	g := uniformGraph(300)
	q := singleEdgeQuery(t)
	srv := startTestServer(t, g, Config{
		SubscriberQueue: 1 << 15,
		Engine:          []core.Option{core.Threads(1)},
	})

	cl, err := Dial(srv.Addr(), DialConfig{DeltaBuffer: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register("slow", "GraphFlow", q); err != nil {
		t.Fatal(err)
	}
	if err := cl.Subscribe("slow"); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(11))
	updates := insertOnlyStream(rng, g, 3000, 1)
	for off := 0; off < len(updates); off += 500 {
		if n, err := cl.Send(updates[off : off+500]); err != nil || n != 500 {
			t.Fatalf("send: %d, %v", n, err)
		}
	}
	// Nothing has drained Deltas; with the old blocking read loop this
	// Flush deadlocked against the undelivered deltas.
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	if cl.Dropped() == 0 {
		t.Fatal("overflowing DeltaBuffer counted no client-side drops")
	}

	// Every delta the server delivered was either buffered or counted.
	buffered := uint64(0)
drain:
	for {
		select {
		case <-cl.Deltas():
			buffered++
		default:
			break drain
		}
	}
	m := srv.Metrics()
	delivered := m.Deltas - m.DeltasDropped
	if buffered+cl.Dropped() != delivered {
		t.Fatalf("buffered %d + dropped %d != delivered %d", buffered, cl.Dropped(), delivered)
	}
}

// TestServerSubscribeDeregisterRace hammers SUBSCRIBE against the
// owner's deregister cycle: whatever the interleaving, a subscription
// must never survive the query it attached to — once the name is
// deregistered, no stale subs entry may remain to silently attach to a
// future re-registration.
func TestServerSubscribeDeregisterRace(t *testing.T) {
	g := uniformGraph(20)
	q := singleEdgeQuery(t)
	srv := startTestServer(t, g, Config{Engine: []core.Option{core.Threads(1)}})

	owner, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	sub, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	for i := 0; i < 50; i++ {
		if err := owner.Register("r", "GraphFlow", q); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for j := 0; j < 4; j++ {
				_ = sub.Subscribe("r") // racing the deregister; errors expected
			}
		}()
		if err := owner.Deregister("r"); err != nil {
			t.Fatal(err)
		}
		<-done
		// Both RPC streams are quiescent and the query is gone: any
		// subscription that slipped into the teardown window is stale.
		srv.mu.Lock()
		stale := len(srv.subs["r"])
		srv.mu.Unlock()
		if stale != 0 {
			t.Fatalf("iteration %d: %d stale subscriptions on a deregistered query", i, stale)
		}
	}
}

// TestServerRejectBackpressure holds the ingestion loop mid-batch with
// the test gate and checks the reject policy's accounting exactly: one
// update held in the open batch plus MaxInflight queued are admitted,
// the remainder of the request is refused.
func TestServerRejectBackpressure(t *testing.T) {
	g := uniformGraph(50)
	q := singleEdgeQuery(t)
	gate := make(chan struct{})
	srv := startTestServer(t, g, Config{
		MaxInflight: 3,
		BatchMax:    1,
		Reject:      true,
		ingestGate:  gate,
		Engine:      []core.Option{core.Threads(1)},
	})

	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register("bp", "GraphFlow", q); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(9))
	updates := insertOnlyStream(rng, g, 10, 1)
	// Prime the gate: the ingestion loop pulls exactly one update
	// (BatchMax 1) and parks on the gate inside flushBatch.
	if n, err := cl.Send(updates[:1]); err != nil || n != 1 {
		t.Fatalf("prime send: %d, %v", n, err)
	}
	waitUntil(t, "ingestion loop to park on the gate", func() bool {
		return srv.Metrics().QueueDepth == 0
	})
	// Now the queue (capacity 3) is empty and the consumer is wedged:
	// of the remaining nine updates exactly three fit, six are refused.
	accepted, err := cl.Send(updates[1:])
	if err == nil {
		t.Fatalf("full queue accepted the whole batch (accepted %d)", accepted)
	}
	if accepted != 3 {
		t.Fatalf("accepted %d, want 3", accepted)
	}
	if m := srv.Metrics(); m.Rejected != 6 {
		t.Fatalf("rejected counter = %d, want 6", m.Rejected)
	}

	close(gate)
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	if m := srv.Metrics(); m.Ingested != 4 || m.QueueDepth != 0 {
		t.Fatalf("after drain: ingested %d queue %d, want 4 and 0", m.Ingested, m.QueueDepth)
	}
}

// TestServerConnLimit: connections beyond MaxConns receive an error
// frame and are closed; capacity frees when a connection leaves.
func TestServerConnLimit(t *testing.T) {
	g := uniformGraph(10)
	srv := startTestServer(t, g, Config{MaxConns: 1})

	first, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if err := first.Register("a", "GraphFlow", singleEdgeQuery(t)); err != nil {
		t.Fatal(err)
	}

	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	f, err := ReadFrame(bufio.NewReader(raw), 0)
	if err != nil {
		t.Fatalf("expected error frame, got %v", err)
	}
	if f.Type != TypeError {
		t.Fatalf("frame %+v, want error", f)
	}
	if srv.Metrics().ConnsRejected != 1 {
		t.Fatalf("ConnsRejected = %d", srv.Metrics().ConnsRejected)
	}

	first.Close()
	waitUntil(t, "capacity to free", func() bool { return srv.Metrics().Connections == 0 })
	second, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if err := second.Register("b", "GraphFlow", singleEdgeQuery(t)); err != nil {
		t.Fatalf("register after capacity freed: %v", err)
	}
}

// TestServerDeregisterOnDisconnect: queries die with their owning
// connection, and other connections' subscriptions to them go quiet.
func TestServerDeregisterOnDisconnect(t *testing.T) {
	g := uniformGraph(60)
	q := singleEdgeQuery(t)
	srv := startTestServer(t, g, Config{Engine: []core.Option{core.Threads(1)}})

	owner, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.Register("gone1", "GraphFlow", q); err != nil {
		t.Fatal(err)
	}
	if err := owner.Register("gone2", "Symbi", q); err != nil {
		t.Fatal(err)
	}
	if srv.NumQueries() != 2 {
		t.Fatalf("NumQueries = %d", srv.NumQueries())
	}

	watcher, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer watcher.Close()
	if err := watcher.Subscribe("gone1"); err != nil {
		t.Fatal(err)
	}

	owner.Close()
	waitUntil(t, "owner queries to deregister", func() bool { return srv.NumQueries() == 0 })

	rng := rand.New(rand.NewSource(5))
	if _, err := watcher.Send(insertOnlyStream(rng, g, 20, 1)); err != nil {
		t.Fatal(err)
	}
	if err := watcher.Flush(); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-watcher.Deltas():
		t.Fatalf("delta %+v after query deregistration", d)
	default:
	}
	if n := srv.Metrics().Subscriptions; n != 0 {
		t.Fatalf("stale subscriptions: %d", n)
	}
}

// TestServerReadTimeout: an idle connection is dropped at the read
// deadline.
func TestServerReadTimeout(t *testing.T) {
	g := uniformGraph(10)
	srv := startTestServer(t, g, Config{ReadTimeout: 100 * time.Millisecond})

	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	waitUntil(t, "idle connection to be dropped", func() bool { return srv.Metrics().Connections == 0 })
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := ReadFrame(bufio.NewReader(raw), 0); err == nil {
		t.Fatal("read succeeded on a dropped connection")
	}
}

// TestServerGracefulShutdown: Close drains admitted updates, releases
// every goroutine (checked against the pre-test baseline), and is
// idempotent; clients see their in-flight requests fail, not hang.
func TestServerGracefulShutdown(t *testing.T) {
	before := runtime.NumGoroutine()

	g := uniformGraph(80)
	q := singleEdgeQuery(t)
	srv := startTestServer(t, g, Config{Engine: []core.Option{core.Threads(2)}})

	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register("shut", "GraphFlow", q); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	updates := insertOnlyStream(rng, g, 50, 1)
	if n, err := cl.Send(updates); err != nil || n != len(updates) {
		t.Fatalf("send: %d, %v", n, err)
	}

	// Everything admitted before Close must be drained through the
	// engines (drain-then-close), even with no flush in between.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	m := srv.Metrics()
	if m.Ingested+m.Invalid != uint64(len(updates)) || m.QueueDepth != 0 {
		t.Fatalf("drain lost updates: ingested %d invalid %d queue %d", m.Ingested, m.Invalid, m.QueueDepth)
	}

	if err := cl.Register("late", "GraphFlow", q); err == nil {
		t.Fatal("request succeeded after shutdown")
	}
	cl.Close()

	waitUntil(t, "goroutines to settle", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+2
	})
}

// TestOfferDeltaDropAndCount pins the bounded-queue contract at the unit
// level: capacity admits frames carrying the Seq fanout stamped on them,
// overflow drops and counts (so the subscriber sees the drop as a Seq
// gap), a closed connection neither admits nor counts.
func TestOfferDeltaDropAndCount(t *testing.T) {
	cn := &conn{out: make(chan *Frame, 2), closed: make(chan struct{})}
	for i := 1; i <= 5; i++ {
		// fanout stamps the query's produced-delta watermark before
		// offering; the watermark advances whether or not the offer lands.
		cn.offerDelta(&Frame{Type: TypeDelta, Seq: uint64(i)})
	}
	if cn.dropped != 3 {
		t.Fatalf("dropped %d, want 3", cn.dropped)
	}
	f1 := <-cn.out
	f2 := <-cn.out
	if f1.Seq != 1 || f2.Seq != 2 {
		t.Fatalf("admitted seqs %d,%d", f1.Seq, f2.Seq)
	}
	ok := cn.offerDelta(&Frame{Type: TypeDelta, Seq: 6})
	f3 := <-cn.out
	if !ok || f3.Seq != 6 || f3.Dropped != 3 {
		t.Fatalf("post-drain frame: ok=%v seq=%d dropped=%d", ok, f3.Seq, f3.Dropped)
	}
	// Seqs 3-5 never arrived: the gap between delivered frames (2 → 6) is
	// exactly the drop count the next frame carries.
	if gap := f3.Seq - f2.Seq - 1; gap != f3.Dropped {
		t.Fatalf("seq gap %d != dropped %d", gap, f3.Dropped)
	}
	close(cn.closed)
	if cn.offerDelta(&Frame{Type: TypeDelta, Seq: 7}) {
		t.Fatal("offer succeeded on closed connection")
	}
	if cn.dropped != 3 {
		t.Fatalf("closed-connection offer counted as drop: %d", cn.dropped)
	}
}

// TestServerSettlesAfterSetup: set-up work (start, every registration)
// marks the heap unsettled, and the first ingested batch after it settles
// it — once, not per batch.
func TestServerSettlesAfterSetup(t *testing.T) {
	g := uniformGraph(20)
	srv := startTestServer(t, g, Config{})
	if !srv.unsettled.Load() {
		t.Fatal("a freshly started server is not marked unsettled")
	}
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	updates := insertOnlyStream(rand.New(rand.NewSource(3)), g, 4, 1)
	send := func(s stream.Stream) {
		t.Helper()
		if _, err := cl.Send(s); err != nil {
			t.Fatal(err)
		}
		if err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	send(updates[:1])
	if srv.unsettled.Load() {
		t.Fatal("first batch did not settle the start-up heap")
	}
	if err := cl.Register("q", "GraphFlow", singleEdgeQuery(t)); err != nil {
		t.Fatal(err)
	}
	if !srv.unsettled.Load() {
		t.Fatal("a registration did not mark the heap unsettled")
	}
	send(updates[1:])
	if srv.unsettled.Load() {
		t.Fatal("first batch after the registration did not settle it")
	}
}
