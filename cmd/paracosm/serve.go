package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"paracosm/internal/core"
	"paracosm/internal/graph"
	"paracosm/internal/obs"
	"paracosm/internal/server"
	"paracosm/internal/wal"
)

// serveMain implements `paracosm serve`: a long-running streaming CSM
// service over a data graph. Clients (see `paracosm client`) register
// named continuous queries, push update streams and subscribe to
// match-delta notifications. The process runs until SIGINT/SIGTERM and
// shuts down gracefully (drain admitted updates, close connections).
func serveMain(args []string) {
	fs := flag.NewFlagSet("paracosm serve", flag.ExitOnError)
	var (
		dataPath    = fs.String("data", "", "data graph file (required)")
		addr        = fs.String("addr", "127.0.0.1:7400", "TCP listen address")
		threads     = fs.Int("threads", 0, "worker threads per query engine (default GOMAXPROCS)")
		inter       = fs.Bool("inter", true, "enable the inter-update safe/unsafe classifier")
		batchMax    = fs.Int("batch-max", 0, "max updates folded into one ingestion batch")
		inflight    = fs.Int("inflight", 0, "ingestion queue capacity in updates")
		reject      = fs.Bool("reject", false, "reject updates when the ingestion queue is full instead of blocking")
		subQueue    = fs.Int("sub-queue", 0, "per-connection delta queue capacity (overflow drops)")
		maxConns    = fs.Int("max-conns", 0, "max concurrent connections")
		readTimeout = fs.Duration("read-timeout", 5*time.Minute, "per-connection idle read deadline (0 = none)")
		debugAddr   = fs.String("debug-addr", "", "serve /metrics, /trace, /healthz and /debug/pprof on this address")
		traceCap    = fs.Int("trace-cap", obs.DefaultRingCap, "trace ring capacity")
		window      = fs.Int("window", 0, "coalescing window size in updates (0/1 = no windows)")
		walDir      = fs.String("wal-dir", "", "durability directory: write-ahead log + snapshots; restart recovers from it")
		snapEvery   = fs.Int("snapshot-every", 0, "snapshot cadence in applied updates (default 65536, negative disables)")
		fsyncMode   = fs.String("fsync", "interval", "WAL fsync policy: interval | always | off")
		fsyncEvery  = fs.Duration("fsync-interval", 0, "group-commit fsync cadence under -fsync interval (default 50ms)")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: paracosm serve -data graph.txt [-addr host:port] [options]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if *dataPath == "" && *walDir == "" {
		// With -wal-dir, the graph comes from the recovered snapshot (or
		// starts empty on the very first boot), so -data is optional.
		fs.Usage()
		os.Exit(2)
	}
	fsyncPolicy, err := wal.ParsePolicy(*fsyncMode)
	if err != nil {
		fatal(err)
	}
	g := graph.New(0)
	if *dataPath != "" {
		g = mustGraph(*dataPath)
	}

	var tracer *obs.Tracer
	if *debugAddr != "" {
		tracer = obs.NewTracer(*traceCap)
	}
	srv, err := server.Start(g, server.Config{
		Addr:            *addr,
		MaxConns:        *maxConns,
		MaxInflight:     *inflight,
		Reject:          *reject,
		SubscriberQueue: *subQueue,
		BatchMax:        *batchMax,
		ReadTimeout:     *readTimeout,
		Tracer:          tracer,
		WALDir:          *walDir,
		SnapshotEvery:   *snapEvery,
		Fsync:           fsyncPolicy,
		FsyncInterval:   *fsyncEvery,
		Engine: []core.Option{
			core.Threads(*threads),
			core.InterUpdate(*inter),
			core.Window(*window),
		},
	})
	if err != nil {
		fatal(err)
	}
	if *debugAddr != "" {
		// The readiness gate makes /healthz answer 503 until the WAL
		// replay completes — the debug server comes up first so probes can
		// watch recovery progress.
		mux := obs.NewMuxReady(tracer, srv.Ready, srv.WriteMetrics, srv.WriteQueryMetrics)
		mux.Handle("/queries", srv.QueriesHandler())
		dbg, err := obs.StartHandler(*debugAddr, mux)
		if err != nil {
			srv.Close()
			fatal(err)
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "debug server on http://%s (/metrics /trace /queries /healthz /debug/pprof)\n", dbg.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if *walDir != "" {
		// Announce only once recovery finishes (scripts wait on the
		// "serving on" line or the /healthz 200 it implies); bail out
		// cleanly if a signal lands mid-replay.
		readyc := make(chan error, 1)
		go func() { readyc <- srv.WaitReady(context.Background()) }()
		select {
		case err := <-readyc:
			if err != nil {
				srv.Close()
				fatal(err)
			}
		case <-sig:
			fmt.Fprintln(os.Stderr, "shutting down")
			srv.Close()
			return
		}
	}
	fmt.Fprintf(os.Stderr, "serving on %s (|V|=%d |E|=%d)\n", srv.Addr(), g.NumVertices(), g.NumEdges())
	<-sig
	fmt.Fprintln(os.Stderr, "shutting down")
	if err := srv.Close(); err != nil {
		fatal(err)
	}
	m := srv.Metrics()
	fmt.Fprintf(os.Stderr, "served %d conns, ingested %d updates (%d invalid, %d rejected), %d deltas (%d dropped)\n",
		m.ConnsTotal, m.Ingested, m.Invalid, m.Rejected, m.Deltas, m.DeltasDropped)
}

// clientMain implements `paracosm client`: register a continuous query,
// optionally subscribe to its deltas, stream a update file, flush, and
// report totals — one shot of the serving protocol, CLI-shaped so shell
// scripts can drive a server end to end.
func clientMain(args []string) {
	fs := flag.NewFlagSet("paracosm client", flag.ExitOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:7400", "server address")
		name       = fs.String("name", "", "query name to register (requires -query)")
		algoName   = fs.String("algo", "Symbi", "algorithm: CaLiG | GraphFlow | NewSP | Symbi | TurboFlux")
		queryPath  = fs.String("query", "", "query graph file to register")
		streamPath = fs.String("stream", "", "update stream file to push")
		subscribe  = fs.Bool("subscribe", false, "subscribe to the registered query's match deltas")
		chunk      = fs.Int("chunk", 256, "updates per wire frame")
		verbose    = fs.Bool("v", false, "print every delta notification")
		linger     = fs.Duration("linger", 0, "keep the connection (and its registered query) alive this long after reporting totals")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: paracosm client -name q1 -query query.txt [-stream updates.txt] [-subscribe] [options]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if (*name == "") != (*queryPath == "") {
		fatal(fmt.Errorf("client: -name and -query must be given together"))
	}

	cl, err := server.Dial(*addr)
	if err != nil {
		fatal(err)
	}
	defer cl.Close()

	if *name != "" {
		q := mustQuery(*queryPath)
		if err := cl.Register(*name, *algoName, q); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "registered %q (%s, |V|=%d |E|=%d)\n", *name, *algoName, q.NumVertices(), q.NumEdges())
		if *subscribe {
			if err := cl.Subscribe(*name); err != nil {
				fatal(err)
			}
		}
	}

	// Drain deltas concurrently with streaming: a subscription busier
	// than the client's DeltaBuffer must be consumed while updates are in
	// flight, or the deltas overflow the buffer and are dropped
	// client-side.
	var frames, pos, neg, dropped uint64
	take := func(d server.Delta) {
		frames++
		pos += d.Pos
		neg += d.Neg
		dropped = d.Dropped
		if *verbose {
			fmt.Printf("delta %s %q +%d -%d\n", d.Update, d.Query, d.Pos, d.Neg)
		}
	}
	stop := make(chan struct{})
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			select {
			case d, ok := <-cl.Deltas():
				if !ok {
					return
				}
				take(d)
			case <-stop:
				// The flush barrier guarantees every delta for the
				// accepted updates is already buffered locally, so a
				// final non-blocking sweep is complete.
				for {
					select {
					case d, ok := <-cl.Deltas():
						if !ok {
							return
						}
						take(d)
					default:
						return
					}
				}
			}
		}
	}()

	accepted := 0
	if *streamPath != "" {
		s := mustStream(*streamPath)
		for off := 0; off < len(s); off += *chunk {
			end := off + *chunk
			if end > len(s) {
				end = len(s)
			}
			n, err := cl.Send(s[off:end])
			accepted += n
			if err != nil {
				fatal(fmt.Errorf("client: after %d accepted updates: %w", accepted, err))
			}
		}
	}
	if err := cl.Flush(); err != nil {
		fatal(err)
	}
	close(stop)
	<-drained

	fmt.Printf("accepted       : %d\n", accepted)
	fmt.Printf("delta frames   : %d\n", frames)
	fmt.Printf("matches        : +%d / -%d (dropped %d)\n", pos, neg, dropped+cl.Dropped())
	if *linger > 0 {
		// Hold the connection open so the registered query stays live —
		// lets scripts probe the server's /queries endpoint and labeled
		// metrics while a standing query exists (see serve_smoke.sh).
		os.Stdout.Sync()
		time.Sleep(*linger)
	}
}
