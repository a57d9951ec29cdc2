// Command experiments regenerates the tables and figures of the ParaCOSM
// paper on the synthesized datasets.
//
// Usage:
//
//	experiments -run all
//	experiments -run fig7,fig9 -scale 0.005 -queries 10 -budget 5s -threads 32
//	experiments -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"paracosm/internal/bench"
	"paracosm/internal/obs"
)

func main() {
	var (
		run       = flag.String("run", "all", "comma-separated experiment ids, or 'all'")
		list      = flag.Bool("list", false, "list available experiments and exit")
		scale     = flag.Float64("scale", 0.002, "dataset scale factor relative to Table 5 sizes")
		seed      = flag.Int64("seed", 1, "generation seed")
		queries   = flag.Int("queries", 3, "queries per query size (paper: 100)")
		updates   = flag.Int("updates", 300, "max stream updates per query")
		budget    = flag.Duration("budget", 2*time.Second, "per-query time budget (paper: 1h)")
		threads   = flag.Int("threads", 0, "parallel worker count (default GOMAXPROCS; paper headline: 32)")
		sim       = flag.Bool("simulate", false, "force execution-driven schedule simulation (automatic whenever the machine has fewer CPUs than -threads)")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /trace, /healthz and /debug/pprof on this address while experiments run (the engine counters on /metrics move once per finished run)")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.AllWithAblations() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := bench.Config{
		Scale:          *scale,
		Seed:           *seed,
		QueriesPerSize: *queries,
		StreamCap:      *updates,
		Budget:         *budget,
		Threads:        *threads,
		Simulate:       *sim,
	}.Defaults()
	if *debugAddr != "" {
		cfg.Tracer = obs.NewTracer(obs.DefaultRingCap)
		dbg, err := obs.StartServer(*debugAddr, cfg.Tracer, bench.WriteFinishedStats)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "debug server on http://%s\n", dbg.Addr())
	}

	var exps []bench.Experiment
	switch {
	case *run == "all":
		exps = bench.AllWithAblations()
	case *run == "paper":
		exps = bench.All()
	default:
		for _, id := range strings.Split(*run, ",") {
			e, err := bench.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			exps = append(exps, e)
		}
	}

	fmt.Printf("# ParaCOSM experiments: scale=%g seed=%d queries/size=%d updates=%d budget=%v threads=%d simulate=%v\n\n",
		cfg.Scale, cfg.Seed, cfg.QueriesPerSize, cfg.StreamCap, cfg.Budget, cfg.Threads, cfg.Simulate)
	for _, e := range exps {
		fmt.Printf("== %s: %s ==\n", e.ID, e.Title)
		t0 := time.Now()
		if err := e.Run(cfg, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("(%s completed in %v)\n\n", e.ID, time.Since(t0).Round(time.Millisecond))
	}
}
