// Command paracosm runs one CSM algorithm — single-threaded or under the
// ParaCOSM framework — over a data graph, query graph and update stream in
// the text formats of the CSM benchmark suite (see cmd/gendata), and
// reports incremental matches plus a full instrumentation breakdown.
//
// Usage:
//
//	paracosm -data data_graph.txt -query query_6_000.txt \
//	         -stream insertion_stream.txt -algo Symbi -threads 32
//
// With -debug-addr the run exposes the observability layer over HTTP
// (/metrics, /trace, /healthz, /debug/pprof). A saved trace (-trace-out,
// or curl of /trace) is analyzed offline with the trace subcommand:
//
//	paracosm trace -top 5 trace.jsonl
//
// The serve subcommand runs the streaming service (standing queries over
// a live update stream) and client drives it:
//
//	paracosm serve -data data_graph.txt -addr 127.0.0.1:7400
//	paracosm client -name q1 -algo Symbi -query query_6_000.txt \
//	         -stream insertion_stream.txt -subscribe
//
// The top subcommand polls a serve instance's /queries debug endpoint and
// renders the N hottest standing queries:
//
//	paracosm top -addr 127.0.0.1:8080 -n 10 -by latency
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"paracosm/internal/algo"
	"paracosm/internal/core"
	"paracosm/internal/csm"
	"paracosm/internal/graph"
	"paracosm/internal/obs"
	"paracosm/internal/query"
	"paracosm/internal/stream"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "trace":
			traceMain(os.Args[2:])
			return
		case "serve":
			serveMain(os.Args[2:])
			return
		case "client":
			clientMain(os.Args[2:])
			return
		case "top":
			topMain(os.Args[2:])
			return
		}
	}
	var (
		dataPath   = flag.String("data", "", "data graph file (required)")
		queryPath  = flag.String("query", "", "query graph file (required)")
		streamPath = flag.String("stream", "", "update stream file (required)")
		algoName   = flag.String("algo", "Symbi", "algorithm: CaLiG | GraphFlow | NewSP | Symbi | TurboFlux")
		threads    = flag.Int("threads", 0, "worker threads (default GOMAXPROCS; 1 = sequential)")
		inter      = flag.Bool("inter", true, "enable the inter-update safe/unsafe classifier")
		split      = flag.Int("split", 4, "SPLIT_DEPTH for adaptive task sharing")
		budget     = flag.Duration("budget", time.Hour, "processing time budget")
		verbose    = flag.Bool("v", false, "print every incremental match")
		debugAddr  = flag.String("debug-addr", "", "serve /metrics, /trace, /healthz and /debug/pprof on this address (e.g. :8080)")
		traceCap   = flag.Int("trace-cap", obs.DefaultRingCap, "trace ring capacity (older events are overwritten)")
		traceOut   = flag.String("trace-out", "", "write the trace ring as JSONL to this file at end of run")
		linger     = flag.Duration("debug-linger", 0, "keep the debug server up this long after the run (0 = exit immediately)")
	)
	flag.Parse()
	if *dataPath == "" || *queryPath == "" || *streamPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	g := mustGraph(*dataPath)
	q := mustQuery(*queryPath)
	s := mustStream(*streamPath)
	entry, err := algo.ByName(*algoName)
	if err != nil {
		fatal(err)
	}

	var tracer *obs.Tracer
	if *debugAddr != "" || *traceOut != "" {
		tracer = obs.NewTracer(*traceCap)
	}
	eng := core.New(entry.New(),
		core.Threads(*threads),
		core.InterUpdate(*inter),
		core.SplitDepth(*split),
		core.WithTracer(tracer))
	defer eng.Close()
	var dbg *obs.Server
	if *debugAddr != "" {
		dbg, err = obs.StartServer(*debugAddr, tracer, func(w io.Writer) error { return eng.Stats().WritePrometheus(w) })
		if err != nil {
			fatal(err)
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "debug server on http://%s (/metrics /trace /healthz /debug/pprof)\n", dbg.Addr())
	}
	if *verbose {
		eng.OnMatch = func(st *csm.State, count uint64, positive bool) {
			sign := "+"
			if !positive {
				sign = "-"
			}
			fmt.Printf("%s match x%d: %s\n", sign, count, formatMatch(st, q))
		}
	}

	t0 := time.Now()
	if err := eng.Init(g, q); err != nil {
		fatal(err)
	}
	build := time.Since(t0)

	ctx, cancel := context.WithTimeout(context.Background(), *budget)
	defer cancel()
	st, err := eng.Run(ctx, s)
	status := "ok"
	if err != nil {
		status = fmt.Sprintf("aborted: %v", err)
	}

	fmt.Printf("algorithm      : %s (%d threads, inter-update %v)\n", entry.Name, eng.Config().Threads, eng.Config().InterUpdate)
	fmt.Printf("data graph     : |V|=%d |E|=%d\n", g.NumVertices(), g.NumEdges())
	fmt.Printf("query graph    : |V|=%d |E|=%d\n", q.NumVertices(), q.NumEdges())
	fmt.Printf("status         : %s\n", status)
	fmt.Printf("offline build  : %v\n", build.Round(time.Microsecond))
	fmt.Printf("updates        : %d (%d safe / %d unsafe)\n", st.Updates, st.SafeUpdates, st.UnsafeUpdates)
	fmt.Printf("matches        : +%d / -%d (search nodes: %d)\n", st.Positive, st.Negative, st.Nodes)
	fmt.Printf("incremental t  : %v (ADS %v, find %v)\n",
		st.TTotal.Round(time.Microsecond), st.TADS.Round(time.Microsecond), st.TFind.Round(time.Microsecond))
	if st.Updates > 0 {
		fmt.Printf("throughput     : %.0f updates/s\n", float64(st.Updates)/st.TTotal.Seconds())
	}
	if tracer != nil {
		lat := tracer.Hist(obs.PhaseTotal)
		fmt.Printf("update latency : p50 %v  p90 %v  p99 %v  max %v\n",
			lat.Quantile(0.50).Round(time.Microsecond),
			lat.Quantile(0.90).Round(time.Microsecond),
			lat.Quantile(0.99).Round(time.Microsecond),
			lat.Max().Round(time.Microsecond))
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := tracer.Ring().WriteJSONL(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d trace events to %s (%d dropped)\n",
			tracer.Ring().Len(), *traceOut, tracer.Ring().Dropped())
	}
	if dbg != nil && *linger > 0 {
		fmt.Fprintf(os.Stderr, "debug server lingering for %v\n", *linger)
		time.Sleep(*linger)
	}
}

// traceMain implements `paracosm trace [-top k] <trace.jsonl>`: offline
// analysis of a trace ring dump (from -trace-out or `curl /trace`).
func traceMain(args []string) {
	fs := flag.NewFlagSet("paracosm trace", flag.ExitOnError)
	top := fs.Int("top", 10, "number of straggler updates to list")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: paracosm trace [-top k] <trace.jsonl>  (use - for stdin)")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	var rd io.Reader = os.Stdin
	if path := fs.Arg(0); path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		rd = f
	}
	evs, err := obs.ReadJSONL(rd)
	if err != nil {
		fatal(err)
	}
	obs.Analyze(evs, *top).Render(os.Stdout)
}

func formatMatch(st *csm.State, q *query.Graph) string {
	out := "{"
	for u := 0; u < q.NumVertices(); u++ {
		if u > 0 {
			out += ", "
		}
		v := st.Map[u]
		if v == graph.NoVertex {
			out += fmt.Sprintf("u%d->?", u)
		} else {
			out += fmt.Sprintf("u%d->v%d", u, v)
		}
	}
	return out + "}"
}

func mustGraph(path string) *graph.Graph {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	g, err := graph.Read(f)
	if err != nil {
		fatal(err)
	}
	return g
}

func mustQuery(path string) *query.Graph {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	// Query files reuse the graph text format.
	g, err := graph.Read(f)
	if err != nil {
		fatal(err)
	}
	labels := make([]graph.Label, g.NumVertices())
	for v := range labels {
		labels[v] = g.Label(graph.VertexID(v))
	}
	q, err := query.New(labels)
	if err != nil {
		fatal(err)
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, nb := range g.Neighbors(graph.VertexID(v)) {
			if graph.VertexID(v) < nb.ID {
				if err := q.AddEdge(query.VertexID(v), query.VertexID(nb.ID), nb.ELabel); err != nil {
					fatal(err)
				}
			}
		}
	}
	if err := q.Finalize(); err != nil {
		fatal(err)
	}
	return q
}

func mustStream(path string) stream.Stream {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	s, err := stream.Read(f)
	if err != nil {
		fatal(err)
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paracosm:", err)
	os.Exit(1)
}
