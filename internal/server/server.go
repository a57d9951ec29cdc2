package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"paracosm/internal/algo"
	"paracosm/internal/core"
	"paracosm/internal/csm"
	"paracosm/internal/graph"
	"paracosm/internal/obs"
	"paracosm/internal/stream"
	"paracosm/internal/wal"
)

// Config controls a streaming CSM server.
type Config struct {
	// Addr is the TCP listen address (e.g. "127.0.0.1:7400", ":0").
	Addr string

	// MaxConns limits concurrently served connections; further accepts
	// receive an error frame and are closed. Defaults to 256.
	MaxConns int

	// MaxInflight bounds the ingestion queue (in updates): the
	// backpressure window between client readers and the ingestion
	// loop. Defaults to 4096.
	MaxInflight int

	// Reject selects the backpressure policy when the ingestion queue
	// is full: false (default) blocks the submitting connection's
	// reader until space frees; true rejects the remainder of the
	// request with a "busy" error reply carrying the accepted count.
	Reject bool

	// SubscriberQueue is the per-connection outbound queue capacity.
	// Replies always get through (the connection's own reader blocks
	// until there is room); match deltas overflow with drop-and-count,
	// mirroring the obs.Ring convention, so one slow subscriber never
	// stalls ingestion. Defaults to 256.
	SubscriberQueue int

	// BatchMax caps how many queued updates the ingestion loop folds
	// into one MultiEngine.ProcessBatch call. Batching is opportunistic:
	// an idle stream is flushed immediately, a busy one amortizes the
	// per-batch engine lock, validation and WAL append. Defaults to 256.
	BatchMax int

	// ReadTimeout is the per-frame read deadline; connections idle
	// longer are closed (0 = no idle limit).
	ReadTimeout time.Duration

	// WriteTimeout bounds a single outbound frame write, so a stalled
	// client cannot wedge its writer goroutine. Defaults to 10s.
	WriteTimeout time.Duration

	// MaxFrame bounds one wire frame (DefaultMaxFrame when 0).
	MaxFrame int

	// Tracer, if non-nil, receives server lifecycle events
	// (accept/register/ingest/fanout-drop, Class "server") in its trace
	// ring and is attached to every query engine, so /metrics and
	// /trace cover the serving layer end to end.
	Tracer *obs.Tracer

	// Engine configures every per-query engine (threads, batch size,
	// inter-update toggle, ...).
	Engine []core.Option

	// WALDir, when non-empty, enables the durability layer (internal/wal):
	// accepted updates and registration changes are written ahead to a
	// log in this directory, periodic snapshots capture the full serving
	// state, and Start recovers from the latest snapshot + log tail
	// instead of serving cfg's graph. The directory is created if needed.
	WALDir string

	// SnapshotEvery is the snapshot cadence in applied updates (WAL mode
	// only): after this many updates since the last snapshot, the
	// ingestion loop writes a new one and truncates the log. 0 defaults
	// to 65536; negative disables periodic snapshots (one is still
	// written on graceful Close).
	SnapshotEvery int

	// Fsync selects the WAL durability policy: group-commit fsync on an
	// interval (default), fsync before every acknowledgment, or never
	// (page-cache only — still crash-safe against process death, not
	// power loss). See wal.SyncPolicy.
	Fsync wal.SyncPolicy

	// FsyncInterval is the group-commit window under SyncInterval
	// (default 50ms).
	FsyncInterval time.Duration

	// ingestGate, when non-nil, is received from before every
	// ProcessBatch — a test seam that holds the ingestion loop mid-batch
	// so queue backpressure can be exercised deterministically.
	ingestGate chan struct{}

	// recoverGate, when non-nil, is received from before every replayed
	// batch — a test seam that holds recovery mid-replay so the
	// readiness gate (healthz 503) can be probed deterministically.
	recoverGate chan struct{}

	// noFinalSnapshot skips the graceful-Close snapshot — a test seam
	// that makes Close leave crash-equivalent on-disk state (snapshot +
	// unreplayed log tail) without an actual kill.
	noFinalSnapshot bool
}

func (c *Config) normalize() {
	if c.MaxConns <= 0 {
		c.MaxConns = 256
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4096
	}
	if c.SubscriberQueue <= 0 {
		c.SubscriberQueue = 256
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 256
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 65536
	}
}

// ingestMsg is one element of the ingestion queue: a single update, or a
// flush barrier (done != nil) released once every update queued before it
// has been processed and fanned out. enq is the admission time, stamped
// only when the server has a tracer (it feeds the ingest_wait pipeline
// stage).
type ingestMsg struct {
	upd  stream.Update
	done chan struct{}
	enq  time.Time
}

// pendingBatch is the ingestion loop's accumulation state: the updates
// being folded into the next ProcessBatch call plus their queue
// timestamps (parallel to upds; populated only when tracing). All slices
// are reused across batches, so the steady-state ingest path does not
// allocate.
type pendingBatch struct {
	upds stream.Stream
	bt   core.BatchTimes
}

func (b *pendingBatch) reset() {
	b.upds = b.upds[:0]
	b.bt.Enqueued = b.bt.Enqueued[:0]
	b.bt.Dequeued = b.bt.Dequeued[:0]
	b.bt.Flushed = time.Time{}
}

// Server is a running streaming CSM service: an accept loop, two
// goroutines per connection (frame reader, frame writer) and a single
// ingestion loop that owns all engine mutation, all joined by Close.
type Server struct {
	cfg    Config
	ln     net.Listener
	multi  *core.MultiEngine
	tracer *obs.Tracer

	ctx    context.Context // cancelled by Close: stops intake, starts drain
	cancel context.CancelFunc
	wg     sync.WaitGroup // joins acceptLoop + ingestLoop (+ recoverLoop in WAL mode); Add serialized by Start (all Adds precede serving)
	connWG sync.WaitGroup // joins per-connection readers/writers; Add serialized by mu (Wait only runs once closing bars new Adds)

	ingest chan ingestMsg

	// Durability state (nil/zero without Config.WALDir). All WAL appends
	// happen under the engine lock — through ProcessBatchLogged's and
	// RegisterLiveLogged's persist hooks — so the log's record order
	// equals the apply order by construction, and ExportState (which
	// holds the same lock) always captures a consistent cut.
	wal       *wal.Log
	ready     chan struct{}             // closed once recovery replay completes (immediately without WAL)
	readyErr  error                     // guarded by mu — replay failure, set before ready closes
	regs      map[string]wal.RegPayload // guarded by mu — live queries' registration payloads (snapshot source)
	persistFn func(stream.Stream) error // built once in Start (a per-batch method value would allocate on the hot path)
	finiOnce  sync.Once
	sinceSnap int // ingestion-loop only — applied updates since the last snapshot

	// unsettled is raised by whatever leaves set-up garbage behind —
	// loading the data graph, recovery replay, every index build of a
	// registration — and lowered by the ingestion loop, which returns that
	// garbage to the OS before the next batch (see settle).
	unsettled atomic.Bool

	mu      sync.Mutex
	conns   map[*conn]struct{} // guarded by mu
	subs    map[string][]*conn // guarded by mu — query name → subscribers
	dying   map[string]int     // guarded by mu — names mid-Deregister; bars new subscriptions
	closing bool               // guarded by mu

	// produced counts every nonzero delta each query has ever produced,
	// delivered or not — the per-query Seq watermark. Frames carry
	// produced[query] at fan-out time, so a subscriber that misses
	// frames (queue overflow, or a disconnect spanning a restart) sees a
	// Seq gap exactly equal to the undelivered count. Snapshots persist
	// it and replayed deltas re-advance it deterministically, which is
	// what makes the contract hold across crashes.
	produced map[string]uint64 // guarded by mu

	closeOnce sync.Once
	closeErr  error // written inside closeOnce, read after wg.Wait

	// WAL-mode counters behind WriteMetrics (zero without a WAL).
	walReplayed   atomic.Uint64 // log records applied during recovery
	walReplaySkip atomic.Uint64 // log records skipped during recovery (e.g. duplicate registration)
	walSnaps      atomic.Uint64 // snapshots written
	walSnapErrs   atomic.Uint64 // snapshot attempts that failed
	walSnapLSN    atomic.Uint64 // LSN of the newest snapshot

	// Monotonic counters + instantaneous gauges behind WriteMetrics.
	connsTotal    atomic.Uint64 // connections accepted
	connsRejected atomic.Uint64 // connections refused at the limit
	ingested      atomic.Uint64 // updates applied through ProcessBatch
	invalid       atomic.Uint64 // updates rejected as unappliable
	rejected      atomic.Uint64 // updates refused by the Reject policy
	deltasTotal   atomic.Uint64 // nonzero match deltas produced
	deltasDropped atomic.Uint64 // deltas lost to subscriber-queue overflow
}

// conn is one served connection. The reader goroutine owns queries and
// all request handling; the writer goroutine drains out; offerDelta is
// called by ingestion-side fan-out.
type conn struct {
	c      net.Conn
	out    chan *Frame   // replies block (reader-side), deltas drop on overflow
	closed chan struct{} // closed exactly once by close(); gates out sends
	once   sync.Once

	outMu   sync.Mutex
	dropped uint64 // guarded by outMu — deltas dropped on overflow

	// queries holds the query names registered by this connection;
	// accessed only by the connection's reader goroutine (registration,
	// deregistration, teardown all run there).
	queries map[string]struct{}
}

func (cn *conn) close() {
	cn.once.Do(func() {
		close(cn.closed)
		cn.c.Close()
	})
}

// offerDelta enqueues a delta frame without ever blocking: the bounded
// queue either admits it or the delta is dropped and counted. The
// frame's Seq is the query's produced-delta watermark, stamped by
// fanout; a drop therefore surfaces to the subscriber as a Seq gap of
// exactly the dropped count (plus the Dropped counter carried on the
// next delivered frame). Safe for concurrent use by multiple per-query
// engine goroutines.
func (cn *conn) offerDelta(f *Frame) bool {
	cn.outMu.Lock()
	defer cn.outMu.Unlock()
	select {
	case <-cn.closed:
		return false
	default:
	}
	f.Dropped = cn.dropped
	select { // drop-counted by dropped
	case cn.out <- f:
		return true
	default:
		cn.dropped++
		return false
	}
}

// Start builds a MultiEngine over g, binds cfg.Addr and serves until
// Close. The graph is cloned exactly once into the engine's shared data
// graph — registered queries add index state only, not graph copies —
// and the caller's g is not retained.
//
// With Config.WALDir set, Start instead recovers: the newest valid
// snapshot (if any) supplies the base graph and standing queries — g is
// ignored then — and the log tail beyond it is replayed asynchronously
// before the server accepts connections or ingests updates. Start
// returns immediately; use Ready/WaitReady (or the /healthz readiness
// gate) to observe recovery completing or failing.
func Start(g *graph.Graph, cfg Config) (*Server, error) {
	cfg.normalize()
	engOpts := append([]core.Option(nil), cfg.Engine...)
	if cfg.Tracer != nil {
		engOpts = append(engOpts, core.WithTracer(cfg.Tracer))
	}
	s := &Server{
		cfg:      cfg,
		multi:    core.NewMulti(engOpts...),
		tracer:   cfg.Tracer,
		ingest:   make(chan ingestMsg, cfg.MaxInflight),
		conns:    make(map[*conn]struct{}),
		subs:     make(map[string][]*conn),
		dying:    make(map[string]int),
		produced: make(map[string]uint64),
		ready:    make(chan struct{}),
	}
	s.multi.OnDelta = s.fanout
	replayFrom := uint64(0)
	if cfg.WALDir != "" {
		from, err := s.openWAL(g)
		if err != nil {
			s.multi.Close()
			return nil, err
		}
		replayFrom = from
	} else {
		if err := s.multi.Init(g); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		s.multi.Close()
		if s.wal != nil {
			s.wal.Close()
		}
		return nil, fmt.Errorf("server: listen %s: %w", cfg.Addr, err)
	}
	s.ln = ln
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.unsettled.Store(true) // the loaded graph, a restored snapshot, the replay to come
	if s.wal != nil {
		s.wg.Add(3)
		go s.recoverLoop(replayFrom)
	} else {
		close(s.ready)
		s.wg.Add(2)
	}
	go s.acceptLoop()
	go s.ingestLoop()
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close gracefully shuts the server down: stop accepting, stop intake,
// drain updates already admitted to the ingestion queue through the
// engines (releasing any flush barriers), close every connection, join
// every goroutine, then release the engines. Safe to call more than
// once; every caller blocks until shutdown completes.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closing = true
		conns := make([]*conn, 0, len(s.conns))
		for cn := range s.conns {
			conns = append(conns, cn)
		}
		s.mu.Unlock()
		s.closeErr = s.ln.Close()
		s.cancel()
		for _, cn := range conns {
			cn.close()
		}
	})
	s.wg.Wait()
	s.finiOnce.Do(func() {
		if s.wal == nil {
			return
		}
		// All loops are joined: nothing mutates the engine or appends to
		// the log anymore. A graceful shutdown writes a final snapshot so
		// the next boot skips replay entirely; a failed server (replay or
		// persist error) must not — its in-memory state is not a cut the
		// log agrees with.
		if s.Err() == nil && !s.cfg.noFinalSnapshot {
			s.snapshot()
		}
		if err := s.wal.Close(); err != nil && s.closeErr == nil {
			s.closeErr = err
		}
		if err := s.Err(); err != nil && s.closeErr == nil {
			s.closeErr = err
		}
	})
	s.multi.Close()
	return s.closeErr
}

// trace records one server lifecycle event (no-op without a tracer): a
// per-op counter behind paracosm_server_events_total plus one Class
// "server" ring event. See obs.Tracer.ServerEvent for why these bypass
// the per-update counters.
func (s *Server) trace(op obs.ServerOp, n uint64) {
	if s.tracer == nil {
		return
	}
	s.tracer.ServerEvent(op, n)
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	// WAL mode: no connection is served until recovery replay completes
	// (arrivals queue in the TCP accept backlog meanwhile). A failed
	// replay never serves — the server is shut down by recoverLoop.
	select {
	case <-s.ready:
		if s.Err() != nil {
			return
		}
	case <-s.ctx.Done():
		return
	}
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed by Close
		}
		s.connsTotal.Add(1)
		s.mu.Lock()
		full := s.closing || len(s.conns) >= s.cfg.MaxConns
		var cn *conn
		if !full {
			cn = &conn{
				c:       c,
				out:     make(chan *Frame, s.cfg.SubscriberQueue),
				closed:  make(chan struct{}),
				queries: make(map[string]struct{}),
			}
			s.conns[cn] = struct{}{}
			// Add under mu, serialized with Close's closing=true: the
			// ingestion loop's post-cancel connWG.Wait can never miss a
			// connection admitted by a racing accept.
			s.connWG.Add(2)
		}
		s.mu.Unlock()
		if full {
			s.connsRejected.Add(1)
			s.trace(obs.SrvReject, 1)
			c.SetWriteDeadline(time.Now().Add(time.Second))
			bw := bufio.NewWriter(c)
			_ = WriteFrame(bw, &Frame{Type: TypeError, Err: "connection limit reached"})
			_ = bw.Flush()
			c.Close()
			continue
		}
		s.trace(obs.SrvAccept, 1)
		go s.readLoop(cn)
		go s.writeLoop(cn)
	}
}

// readLoop parses and serves one connection's requests until the
// connection fails, idles out, or the server closes.
func (s *Server) readLoop(cn *conn) {
	defer s.connWG.Done()
	defer s.teardown(cn)
	br := bufio.NewReader(cn.c)
	for {
		if s.cfg.ReadTimeout > 0 {
			cn.c.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		}
		f, err := ReadFrame(br, s.cfg.MaxFrame)
		if err != nil {
			return
		}
		if !s.handle(cn, f) {
			return
		}
	}
}

// teardown undoes a connection's footprint: subscriptions are removed,
// queries it registered are deregistered (dropping their engines), and
// the writer goroutine is released.
func (s *Server) teardown(cn *conn) {
	cn.close()
	s.mu.Lock()
	delete(s.conns, cn)
	for q, subs := range s.subs {
		s.subs[q] = removeConn(subs, cn)
		if len(s.subs[q]) == 0 {
			delete(s.subs, q)
		}
	}
	s.mu.Unlock()
	if s.wal == nil {
		// Queries die with their registering connection — except in WAL
		// mode, where registrations are durable server state that outlives
		// both the connection and the process (an explicit DEREGISTER
		// removes them).
		for name := range cn.queries {
			// Other connections' subscriptions to this query die with it.
			if s.dropQuery(name) {
				s.trace(obs.SrvDeregister, 1)
			}
		}
	}
	s.trace(obs.SrvDisconnect, 1)
}

// dropQuery removes a query's subscriptions and deregisters its engine
// as one logical step: the name stays marked dying (under mu) for the
// whole window, so a concurrent SUBSCRIBE cannot slip between the subs
// delete and the engine teardown and leave a stale subscription that
// would silently attach to a future re-registration of the same name.
// mu is NOT held across Deregister itself — Deregister waits on any
// in-flight ProcessBatch, whose fanout takes mu, so holding it here
// would deadlock.
func (s *Server) dropQuery(name string) bool {
	s.mu.Lock()
	delete(s.subs, name)
	s.dying[name]++
	s.mu.Unlock()
	var ok bool
	var err error
	if s.wal != nil {
		ok, err = s.multi.DeregisterLogged(name, func() error {
			payload, merr := json.Marshal(name)
			if merr != nil {
				return merr
			}
			_, aerr := s.wal.Append([]wal.Record{{Kind: wal.KindDeregister, Payload: payload}})
			return aerr
		})
	} else {
		ok = s.multi.Deregister(name)
	}
	s.mu.Lock()
	if s.dying[name]--; s.dying[name] == 0 {
		delete(s.dying, name)
	}
	if ok {
		delete(s.produced, name)
		delete(s.regs, name)
	}
	s.mu.Unlock()
	if err != nil {
		return false
	}
	return ok
}

func removeConn(subs []*conn, cn *conn) []*conn {
	out := subs[:0]
	for _, c := range subs {
		if c != cn {
			out = append(out, c)
		}
	}
	return out
}

// reply enqueues a response frame. Replies are never dropped: the send
// blocks (the connection's own command processing stalls, nobody else)
// until the writer drains room, the connection dies, or the server
// shuts down.
func (s *Server) reply(cn *conn, f *Frame) bool {
	select {
	case cn.out <- f:
		return true
	case <-cn.closed:
		return false
	case <-s.ctx.Done():
		return false
	}
}

func (s *Server) replyOK(cn *conn, id uint64, accepted int) bool {
	return s.reply(cn, &Frame{Type: TypeOK, ID: id, Accepted: accepted})
}

func (s *Server) replyErr(cn *conn, id uint64, accepted int, err error) bool {
	return s.reply(cn, &Frame{Type: TypeError, ID: id, Accepted: accepted, Err: err.Error()})
}

// handle serves one request frame; it reports false when the connection
// should be torn down.
func (s *Server) handle(cn *conn, f *Frame) bool {
	switch f.Type {
	case TypeRegister:
		entry, err := algo.ByName(f.Algo)
		if err != nil {
			return s.replyErr(cn, f.ID, 0, err)
		}
		if f.Query == "" {
			return s.replyErr(cn, f.ID, 0, fmt.Errorf("empty query name"))
		}
		q, err := buildQuery(f.Labels, f.Edges)
		if err != nil {
			return s.replyErr(cn, f.ID, 0, err)
		}
		var persist func() error
		if s.wal != nil {
			reg := wal.RegPayload{Name: f.Query, Algo: f.Algo, Labels: f.Labels, Edges: f.Edges}
			persist = func() error {
				payload, err := json.Marshal(reg)
				if err != nil {
					return err
				}
				_, aerr := s.wal.Append([]wal.Record{{Kind: wal.KindRegister, Payload: payload}})
				return aerr
			}
		}
		if err := s.multi.RegisterLiveLogged(f.Query, entry.New(), q, persist); err != nil {
			return s.replyErr(cn, f.ID, 0, err)
		}
		if s.wal != nil {
			s.mu.Lock()
			s.regs[f.Query] = wal.RegPayload{Name: f.Query, Algo: f.Algo, Labels: f.Labels, Edges: f.Edges}
			s.mu.Unlock()
		}
		cn.queries[f.Query] = struct{}{}
		s.unsettled.Store(true)
		s.trace(obs.SrvRegister, 1)
		return s.replyOK(cn, f.ID, 0)

	case TypeDeregister:
		if _, owned := cn.queries[f.Query]; !owned && s.wal == nil {
			// WAL mode has no per-connection ownership: queries are durable
			// server state, deregisterable by any client (they may well have
			// been registered before the last restart).
			return s.replyErr(cn, f.ID, 0, fmt.Errorf("query %q not registered by this connection", f.Query))
		}
		delete(cn.queries, f.Query)
		if !s.dropQuery(f.Query) {
			return s.replyErr(cn, f.ID, 0, fmt.Errorf("unknown query %q", f.Query))
		}
		s.trace(obs.SrvDeregister, 1)
		return s.replyOK(cn, f.ID, 0)

	case TypeSubscribe:
		if s.multi.Engine(f.Query) == nil {
			return s.replyErr(cn, f.ID, 0, fmt.Errorf("unknown query %q", f.Query))
		}
		s.mu.Lock()
		if s.dying[f.Query] > 0 {
			s.mu.Unlock()
			return s.replyErr(cn, f.ID, 0, fmt.Errorf("unknown query %q", f.Query))
		}
		already := false
		for _, c := range s.subs[f.Query] {
			if c == cn {
				already = true
			}
		}
		if !already {
			s.subs[f.Query] = append(s.subs[f.Query], cn)
		}
		s.mu.Unlock()
		if s.multi.Engine(f.Query) == nil {
			// Deregistered between the existence check and the insert (the
			// dying marker only bars the subs-delete→Deregister window):
			// roll back so the subscription cannot outlive its query.
			s.mu.Lock()
			if subs := removeConn(s.subs[f.Query], cn); len(subs) > 0 {
				s.subs[f.Query] = subs
			} else {
				delete(s.subs, f.Query)
			}
			s.mu.Unlock()
			return s.replyErr(cn, f.ID, 0, fmt.Errorf("unknown query %q", f.Query))
		}
		s.trace(obs.SrvSubscribe, 1)
		return s.replyOK(cn, f.ID, 0)

	case TypeUpdate, TypeBatch:
		upds, err := DecodeUpdates(f.Updates)
		if err != nil {
			return s.replyErr(cn, f.ID, 0, err)
		}
		accepted, err := s.enqueue(cn, upds)
		if err != nil {
			return s.replyErr(cn, f.ID, accepted, err)
		}
		return s.replyOK(cn, f.ID, accepted)

	case TypeFlush:
		done := make(chan struct{})
		select {
		case s.ingest <- ingestMsg{done: done}:
		case <-s.ctx.Done():
			return s.replyErr(cn, f.ID, 0, fmt.Errorf("server shutting down"))
		case <-cn.closed:
			return false
		}
		select {
		case <-done:
			return s.replyOK(cn, f.ID, 0)
		case <-s.ctx.Done():
			return s.replyErr(cn, f.ID, 0, fmt.Errorf("server shutting down"))
		case <-cn.closed:
			return false
		}

	default:
		return s.replyErr(cn, f.ID, 0, fmt.Errorf("unknown frame type %q", f.Type))
	}
}

// enqueue admits updates to the ingestion queue one at a time (so
// MaxInflight bounds updates, not frames), honoring the backpressure
// policy: block the submitting reader, or reject the remainder.
func (s *Server) enqueue(cn *conn, upds stream.Stream) (int, error) {
	traced := s.tracer != nil
	for i, upd := range upds {
		m := ingestMsg{upd: upd}
		if traced {
			// One stamp per update feeds the ingest_wait stage; skipped
			// without a tracer so the untraced path stays clock-free.
			m.enq = time.Now()
		}
		if s.cfg.Reject {
			select { // drop-counted by rejected
			case s.ingest <- m:
			default:
				s.rejected.Add(uint64(len(upds) - i))
				return i, fmt.Errorf("busy: ingestion queue full")
			}
			continue
		}
		select {
		case s.ingest <- m:
		case <-s.ctx.Done():
			return i, fmt.Errorf("server shutting down")
		case <-cn.closed:
			return i, fmt.Errorf("connection closing")
		}
	}
	return len(upds), nil
}

// ingestLoop is the single owner of engine mutation: it folds queued
// updates into batches (up to BatchMax) and runs each through
// MultiEngine.ProcessBatch, whose per-engine inter-update classifier
// path applies safe updates directly. On shutdown it drains whatever
// already made it into the queue before exiting (drain-then-close).
func (s *Server) ingestLoop() {
	defer s.wg.Done()
	// WAL mode: recovery replay owns the engine until ready closes (no
	// connection exists yet to feed the queue, but the wait makes the
	// ownership handoff explicit and covers test seams).
	select {
	case <-s.ready:
	case <-s.ctx.Done():
		s.connWG.Wait()
		return
	}
	batch := pendingBatch{upds: make(stream.Stream, 0, s.cfg.BatchMax)}
	for {
		select {
		case m := <-s.ingest:
			s.gather(&batch, m)
			// Opportunistic batching: keep folding while the queue is
			// hot, flush as soon as it runs dry.
		drain:
			for {
				select {
				case m := <-s.ingest:
					s.gather(&batch, m)
				default:
					break drain
				}
			}
			s.flushBatch(&batch)
		case <-s.ctx.Done():
			// A reader's enqueue select can still win the ingest send after
			// cancellation; wait for every connection goroutine to exit so
			// the final drain observes a quiescent queue and no update
			// acknowledged "ok" is silently lost.
			s.connWG.Wait()
			for {
				select {
				case m := <-s.ingest:
					s.gather(&batch, m)
				default:
					s.flushBatch(&batch)
					return
				}
			}
		}
	}
}

// gather folds one queue element into the pending batch, flushing at
// barriers (so the barrier's happens-after covers every prior update)
// and at the batch cap. With a tracer, each update's enqueue and pickup
// times are kept alongside it, feeding the ingest_wait and assemble
// pipeline stages at flush.
func (s *Server) gather(batch *pendingBatch, m ingestMsg) {
	if m.done != nil {
		s.flushBatch(batch)
		if s.wal != nil && s.cfg.Fsync == wal.SyncInterval {
			// A flush barrier is the client's durability point: force the
			// group-commit fsync now instead of waiting out the interval.
			_ = s.wal.Sync()
		}
		close(m.done)
		return
	}
	batch.upds = append(batch.upds, m.upd)
	if s.tracer != nil {
		batch.bt.Enqueued = append(batch.bt.Enqueued, m.enq)
		batch.bt.Dequeued = append(batch.bt.Dequeued, time.Now())
	}
	if len(batch.upds) >= s.cfg.BatchMax {
		s.flushBatch(batch)
	}
}

// flushBatch runs the pending batch through every registered query.
// Updates that fail validation against the base graph are counted
// invalid; engine errors are impossible here (no deadline, updates
// pre-validated). The batch's queue timestamps ride along so the engine
// driver attributes per-update ingest wait and assembly dwell — observed
// there, on the same path that counts the update applied, which is what
// keeps stage sample counts equal to the ingested counter below.
func (s *Server) flushBatch(batch *pendingBatch) {
	if len(batch.upds) == 0 {
		return
	}
	if s.cfg.ingestGate != nil {
		<-s.cfg.ingestGate
	}
	s.settle()
	var bt *core.BatchTimes
	if s.tracer != nil {
		batch.bt.Flushed = time.Now()
		bt = &batch.bt
	}
	applied, err := s.multi.ProcessBatchLogged(context.Background(), batch.upds, bt, s.persistFn)
	if err != nil && applied == 0 && s.wal != nil {
		// A persist failure rolled the whole batch back (nothing applied,
		// nothing fanned out): the log can no longer honor write-ahead, so
		// stop the server rather than continue accepting updates that
		// would be lost on restart.
		s.trace(obs.SrvIngest, 0)
		s.setErr(err)
		s.cancel()
		batch.reset()
		return
	}
	s.ingested.Add(uint64(applied))
	s.invalid.Add(uint64(len(batch.upds) - applied))
	s.trace(obs.SrvIngest, uint64(applied))
	batch.reset()
	if s.wal != nil && s.cfg.SnapshotEvery > 0 {
		if s.sinceSnap += applied; s.sinceSnap >= s.cfg.SnapshotEvery {
			s.sinceSnap = 0
			s.snapshot()
		}
	}
}

// settle collects and returns to the OS what set-up left behind, once per
// burst of set-up work, before the first batch that follows it. Steady-state
// ingestion allocates next to nothing, so without this the collector's next
// cycle — the only thing that shrinks the heap goal — is minutes away, and
// the process sits at up to twice its set-up peak (index builds over the
// whole graph) for all that time. The cost is one forced collection (tens
// of milliseconds) on the first batch after a registration burst.
func (s *Server) settle() {
	if s.unsettled.CompareAndSwap(true, false) {
		debug.FreeOSMemory()
	}
}

// fanout is the MultiEngine.OnDelta sink: every nonzero ΔM becomes one
// delta frame per subscriber of that query, enqueued without blocking
// (overflow drops and counts). Invoked concurrently by per-query engine
// goroutines during ProcessBatch.
func (s *Server) fanout(qname string, upd stream.Update, d csm.Delta, timeout bool) {
	if d.Positive == 0 && d.Negative == 0 {
		return
	}
	s.deltasTotal.Add(1)
	var clk obs.StageClock
	traced := s.tracer != nil
	if traced {
		clk.Start()
	}
	// Snapshot the subscriber list under the lock: teardown compacts the
	// backing array in place and subscribe appends into its spare
	// capacity, so iterating the bare slice header unlocked races. The
	// query's Seq watermark advances under the same lock — for every
	// nonzero delta, subscribers or not — so it is a deterministic
	// function of the processed stream and survives crash replay intact.
	s.mu.Lock()
	s.produced[qname]++
	seq := s.produced[qname]
	subs := append([]*conn(nil), s.subs[qname]...)
	s.mu.Unlock()
	for _, cn := range subs {
		f := &Frame{
			Type:   TypeDelta,
			Query:  qname,
			Update: upd.String(),
			Pos:    d.Positive,
			Neg:    d.Negative,
			Seq:    seq,
		}
		if traced {
			// The writer goroutine measures this frame's queue dwell and
			// wire write from the stamp (stages sub_queue / wire_write).
			f.enq = time.Now()
		}
		if !cn.offerDelta(f) {
			s.deltasDropped.Add(1)
			s.trace(obs.SrvDrop, 1)
		}
	}
	if traced {
		// One fanout observation per nonzero delta (reconciles with the
		// paracosm_server_deltas_total counter incremented above).
		clk.Mark(s.tracer.Stages(), obs.StageFanout)
	}
}

// writeLoop serializes one connection's outbound frames, batching
// flushes while the queue stays hot. Delta frames stamped by fanout get
// their subscriber-queue dwell and wire-write time observed here (the
// sampled tail of the pipeline: only deltas that were actually delivered
// contribute, which is exactly what the stages describe).
func (s *Server) writeLoop(cn *conn) {
	defer s.connWG.Done()
	bw := bufio.NewWriter(cn.c)
	for {
		select {
		case f := <-cn.out:
			var clk obs.StageClock
			staged := s.tracer != nil && !f.enq.IsZero()
			if staged {
				s.tracer.Stages().Observe(obs.StageSubQueue, time.Since(f.enq))
				clk.Start()
			}
			if s.cfg.WriteTimeout > 0 {
				cn.c.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
			}
			if err := WriteFrame(bw, f); err != nil {
				cn.close()
				return
			}
			if len(cn.out) == 0 {
				if err := bw.Flush(); err != nil {
					cn.close()
					return
				}
			}
			if staged {
				clk.Mark(s.tracer.Stages(), obs.StageWire)
			}
		case <-cn.closed:
			return
		}
	}
}

// MetricsSnapshot is the server's instantaneous /metrics view.
type MetricsSnapshot struct {
	Connections   int
	Queries       int
	Subscriptions int
	QueueDepth    int
	ConnsTotal    uint64
	ConnsRejected uint64
	Ingested      uint64
	Invalid       uint64
	Rejected      uint64
	Deltas        uint64
	DeltasDropped uint64

	// QueriesClosed counts deregistered queries; Stats is the engine work
	// summed over live AND deregistered ones (MultiEngine retains the tally
	// of every closed engine), so its counters are monotonic across client
	// disconnects.
	QueriesClosed uint64
	Stats         core.Stats

	// The dispatch index's (query, edge update) pairs: handed to the
	// query's engine, and accounted in bulk as label-safe without touching
	// it (core.DispatchCounters).
	DispatchVisited uint64
	DispatchSkipped uint64
}

// Metrics returns a snapshot of the serving-layer gauges and counters.
func (s *Server) Metrics() MetricsSnapshot {
	s.mu.Lock()
	conns := len(s.conns)
	subsN := 0
	for _, subs := range s.subs {
		subsN += len(subs)
	}
	s.mu.Unlock()
	_, closedN := s.multi.ClosedStats()
	dc := s.multi.DispatchCounters()
	return MetricsSnapshot{
		Connections:   conns,
		Queries:       s.multi.NumQueries(),
		Subscriptions: subsN,
		QueueDepth:    len(s.ingest),
		ConnsTotal:    s.connsTotal.Load(),
		ConnsRejected: s.connsRejected.Load(),
		Ingested:      s.ingested.Load(),
		Invalid:       s.invalid.Load(),
		Rejected:      s.rejected.Load(),
		Deltas:        s.deltasTotal.Load(),
		DeltasDropped: s.deltasDropped.Load(),

		QueriesClosed: uint64(closedN),
		Stats:         s.multi.TotalStats(),

		DispatchVisited: dc.Visited,
		DispatchSkipped: dc.Skipped,
	}
}

// WriteMetrics emits the serving-layer gauges and counters, and the
// engine counters of Metrics().Stats, in Prometheus text exposition
// format; pass it to obs.StartServer as an extra MetricsFunc to join the
// tracer's /metrics payload.
func (s *Server) WriteMetrics(w io.Writer) error {
	m := s.Metrics()
	st := m.Stats
	series := []obs.Series{
		obs.Gauge("paracosm_server_connections", "Currently served connections.", uint64(m.Connections)),
		obs.Gauge("paracosm_server_queries", "Live registered continuous queries.", uint64(m.Queries)),
		obs.Gauge("paracosm_server_subscriptions", "Active match-delta subscriptions.", uint64(m.Subscriptions)),
		obs.Gauge("paracosm_server_ingest_queue_depth", "Updates waiting in the ingestion queue.", uint64(m.QueueDepth)),
		obs.Counter("paracosm_server_conns_total", "Connections accepted since start.", m.ConnsTotal),
		obs.Counter("paracosm_server_conns_rejected_total", "Connections refused at the connection limit.", m.ConnsRejected),
		obs.Counter("paracosm_server_updates_ingested_total", "Updates applied through the ingestion loop.", m.Ingested),
		obs.Counter("paracosm_server_updates_invalid_total", "Updates rejected as unappliable against the current graph.", m.Invalid),
		obs.Counter("paracosm_server_updates_rejected_total", "Updates refused by the reject backpressure policy.", m.Rejected),
		obs.Counter("paracosm_server_deltas_total", "Nonzero match deltas produced across all queries.", m.Deltas),
		obs.Counter("paracosm_server_deltas_dropped_total", "Match deltas dropped on subscriber-queue overflow.", m.DeltasDropped),
		obs.Counter("paracosm_server_queries_closed_total", "Queries deregistered since start (their work totals are retained below).", m.QueriesClosed),
		obs.Counter("paracosm_query_updates_total", "Updates processed summed over live and deregistered queries.", uint64(st.Updates)),
		obs.Counter("paracosm_query_matches_positive_total", "Positive match deltas summed over live and deregistered queries.", st.Positive),
		obs.Counter("paracosm_query_matches_negative_total", "Negative match deltas summed over live and deregistered queries.", st.Negative),
		obs.Counter("paracosm_query_safe_updates_total", "Updates classified safe summed over live and deregistered queries.", uint64(st.SafeUpdates)),
		obs.Counter("paracosm_query_nodes_total", "Search-tree nodes visited summed over live and deregistered queries.", st.Nodes),
		obs.Counter("paracosm_dispatch_visited_total", "(query, edge update) pairs the dispatch index handed to the query's engine.", m.DispatchVisited),
		obs.Counter("paracosm_dispatch_skipped_total", "(query, edge update) pairs the dispatch index accounted in bulk as label-safe, engine untouched.", m.DispatchSkipped),
	}
	if s.wal != nil {
		wm := s.wal.Metrics()
		series = append(series,
			obs.Counter("paracosm_wal_records_total", "Records appended to the write-ahead log since start.", wm.Records),
			obs.Counter("paracosm_wal_bytes_total", "Encoded bytes appended to the write-ahead log since start.", wm.Bytes),
			obs.Counter("paracosm_wal_flushes_total", "Group-commit write(2) calls by the WAL flusher.", wm.Flushes),
			obs.Counter("paracosm_wal_fsyncs_total", "fsync calls issued by the WAL.", wm.Fsyncs),
			obs.Gauge("paracosm_wal_last_lsn", "Highest assigned log sequence number.", wm.LastLSN),
			obs.Gauge("paracosm_wal_segments", "Live WAL segment files.", uint64(wm.Segments)),
			obs.Counter("paracosm_wal_replayed_records_total", "Log records applied during recovery replay.", s.walReplayed.Load()),
			obs.Counter("paracosm_wal_replay_skipped_total", "Log records skipped during recovery replay.", s.walReplaySkip.Load()),
			obs.Counter("paracosm_wal_snapshots_total", "Durability snapshots written since start.", s.walSnaps.Load()),
			obs.Counter("paracosm_wal_snapshot_errors_total", "Snapshot attempts that failed.", s.walSnapErrs.Load()),
			obs.Gauge("paracosm_wal_snapshot_last_lsn", "LSN of the newest snapshot written this run.", s.walSnapLSN.Load()),
		)
	}
	if err := obs.WriteSeries(w, series); err != nil {
		return err
	}
	return st.WritePrometheus(w)
}
