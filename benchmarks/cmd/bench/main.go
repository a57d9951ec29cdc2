// Command bench is the repository benchmark. See ../../README.md.
//
//	bench -workload <name|all> -seed N [-seconds S] [-trace 0|1]
//	bench aa [-runs N] [-json prefix]       two sets of runs of this tree
//	bench compare old.json new.json         two sets of runs of two trees
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"paracosm/benchmarks/harness"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "aa":
			os.Exit(aaMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

func runFlags(fs *flag.FlagSet, o *harness.Options) {
	fs.IntVar(&o.Seconds, "seconds", 20, "seconds of timed measurement per run")
	fs.Float64Var(&o.Scale, "scale", 1, "shrink graphs and streams (smoke tests)")
	fs.StringVar(&o.Paracosm, "paracosm", "", "prebuilt paracosm binary (built into -out on demand when empty)")
	fs.StringVar(&o.OutDir, "out", "out", "directory for trace files and scratch directories")
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	var o harness.Options
	runFlags(fs, &o)
	fs.StringVar(&o.Workload, "workload", "all", "workload name, or all")
	fs.Int64Var(&o.Seed, "seed", 1, "input seed")
	// An int, not a bool: the acceptance driver passes "--trace 0".
	trace := fs.Int("trace", 0, "1 runs the traced per-layer ladder instead of the end-to-end measurement")
	jsonOut := fs.String("json", "", "also write the full results, as a JSON array, to this file")
	fs.Parse(args)
	o.Trace = *trace != 0

	names := []string{o.Workload}
	if o.Workload == "all" {
		names = names[:0]
		for _, sp := range harness.Specs() {
			names = append(names, sp.Name)
		}
	}
	var results []*harness.Result
	code := 0
	for _, name := range names {
		o.Workload = name
		r, err := harness.Run(o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		results = append(results, r)
		r.WriteText(os.Stdout)
		// The line the acceptance driver reads is the last of the output.
		fmt.Println(r.ContractLine())
		if !r.Correct() {
			code = 1
		}
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, results); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return code
}

func aaMain(args []string) int {
	fs := flag.NewFlagSet("bench aa", flag.ExitOnError)
	var a harness.AAOptions
	runFlags(fs, &a.Run)
	fs.IntVar(&a.Runs, "runs", 5, "runs per set and workload (each with its own seed)")
	fs.Int64Var(&a.Seed, "seed", 1, "first seed; run i of either set uses seed+i of its own range")
	fs.StringVar(&a.Workloads, "workloads", "all", "comma-separated workload names, or all")
	fs.StringVar(&a.Contract, "contract", "../BENCHMARK.json", "the file whose bounds the sets are held to")
	fs.StringVar(&a.JSONPrefix, "json", "", "write the two sets to <prefix>-a.json and <prefix>-b.json")
	fs.Parse(args)
	ok, err := harness.AA(a, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench aa:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("bench compare", flag.ExitOnError)
	contract := fs.String("contract", "../BENCHMARK.json", "the file whose bounds decide regressed / within bound")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-contract BENCHMARK.json] old.json new.json")
		return 2
	}
	regressed, err := harness.Compare(*contract, fs.Arg(0), fs.Arg(1), os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 1
	}
	if regressed {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
