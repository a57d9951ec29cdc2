// Command paracosmvet runs ParaCOSM's project-specific static-analysis
// suite (internal/lint) over the module: lockguard, lockescape, atomicmix,
// goroutineleak, waitgroup, chandrop, noalloc, rangedeterminism, lockcopy,
// and deadexport. It exits non-zero on any finding so `make lint` and CI
// can gate on it.
//
// Usage:
//
//	go run ./cmd/paracosmvet [-checks c1,c2] [-disable c1,c2] [-json] [-ignores] [packages]
//
// where packages are go-tool-style patterns relative to the module root
// ("./...", "./internal/graph", ...). With no arguments the whole module
// is checked. The analyzers always see the whole module — its callers
// keep an export alive, its //paracosm:noalloc roots reach into the
// named packages — and report only on the named packages, so a package's
// verdict is the same alone as under ./.... Intentional violations are
// silenced in-source with
// //lint:ignore <check> <reason>; the directives themselves are audited —
// one naming an unknown check, or suppressing nothing for a check that ran,
// is a finding (disable with -strict-ignores=false). -ignores prints the
// full escape-hatch inventory; -json emits findings as a JSON array for
// machine consumption (CI artifacts).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"paracosm/internal/lint"
)

func main() {
	checks := flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
	disable := flag.String("disable", "", "comma-separated checks to skip")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	ignores := flag.Bool("ignores", false, "report every //lint:ignore directive with its suppression count")
	strict := flag.Bool("strict-ignores", true, "fail on //lint:ignore directives that name an unknown check or suppress nothing")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: paracosmvet [-checks c1,c2] [-disable c1,c2] [-json] [-ignores] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "paracosmvet:", err)
		os.Exit(2)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paracosmvet:", err)
		os.Exit(2)
	}
	pkgs, err := loader.LoadPatterns(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "paracosmvet:", err)
		os.Exit(2)
	}
	module, err := loader.LoadPatterns(nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paracosmvet:", err)
		os.Exit(2)
	}

	analyzers := lint.DefaultAnalyzers()
	if *checks != "" {
		analyzers, err = selectAnalyzers(analyzers, *checks, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paracosmvet:", err)
			os.Exit(2)
		}
	}
	if *disable != "" {
		analyzers, err = selectAnalyzers(analyzers, *disable, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paracosmvet:", err)
			os.Exit(2)
		}
	}

	diags, ignoreInfos := lint.RunAll(module, pkgs, analyzers, lint.Options{StrictIgnores: *strict})

	rel := func(name string) string {
		r, err := filepath.Rel(root, name)
		if err != nil || len(r) >= len(name) {
			return name
		}
		return r
	}

	if *ignores {
		for _, ig := range ignoreInfos {
			fmt.Printf("%s:%d: //lint:ignore %s (%s) — suppressed %d finding(s)\n",
				rel(ig.Pos.Filename), ig.Pos.Line, ig.Check, ig.Reason, ig.Matched)
		}
		fmt.Fprintf(os.Stderr, "paracosmvet: %d ignore directive(s)\n", len(ignoreInfos))
	}

	if *jsonOut {
		type jsonDiag struct {
			File    string `json:"file"`
			Line    int    `json:"line"`
			Col     int    `json:"col"`
			Check   string `json:"check"`
			Message string `json:"message"`
		}
		outDiags := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			outDiags = append(outDiags, jsonDiag{
				File: rel(d.Pos.Filename), Line: d.Pos.Line, Col: d.Pos.Column,
				Check: d.Check, Message: d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(outDiags); err != nil {
			fmt.Fprintln(os.Stderr, "paracosmvet:", err)
			os.Exit(2)
		}
	} else if !*ignores {
		for _, d := range diags {
			fmt.Printf("%s:%d:%d: [%s] %s\n", rel(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Check, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "paracosmvet: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}

// selectAnalyzers filters the suite: keep=true retains exactly the named
// checks, keep=false drops them. Unknown names are an error either way.
func selectAnalyzers(all []lint.Analyzer, spec string, keep bool) ([]lint.Analyzer, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		if name != "" {
			want[name] = true
		}
	}
	var out []lint.Analyzer
	for _, a := range all {
		if want[a.Name()] == keep {
			out = append(out, a)
		}
		delete(want, a.Name())
	}
	for name := range want {
		return nil, fmt.Errorf("unknown check %q", name)
	}
	return out, nil
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
