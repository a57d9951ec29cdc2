package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// One loader (and hence one type-checking universe) per test process: the
// stdlib source importer is the expensive part and its cache is shared.
var sharedLoader = sync.OnceValues(func() (*Loader, error) {
	return NewLoader(filepath.Join("..", ".."))
})

func fixture(t *testing.T, name string) *Package {
	t.Helper()
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.loadDir(dir, "fixture/"+name)
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	return p
}

// run is RunAll without ignore auditing.
func run(module, pkgs []*Package, analyzers []Analyzer) []Diagnostic {
	diags, _ := RunAll(module, pkgs, analyzers, Options{})
	return diags
}

// wantRe marks expected diagnostics in fixture sources: "// want <check>"
// on the line the diagnostic is reported at.
var wantRe = regexp.MustCompile(`// want ([a-z]+)`)

type diagKey struct {
	file  string
	line  int
	check string
}

// checkFixture runs analyzers over the named fixture package (through run,
// so //lint:ignore directives apply) and compares the findings against the
// fixture's // want markers.
func checkFixture(t *testing.T, name string, analyzers ...Analyzer) {
	t.Helper()
	checkPackages(t, nil, []*Package{fixture(t, name)}, analyzers...)
}

// checkPackages is checkFixture over several loaded packages at once, with
// the packages of module as context: the want markers of every reported
// package's directory are collected.
func checkPackages(t *testing.T, module, pkgs []*Package, analyzers ...Analyzer) {
	t.Helper()
	diags := run(module, pkgs, analyzers)

	got := map[diagKey]int{}
	for _, d := range diags {
		got[diagKey{filepath.Base(d.Pos.Filename), d.Pos.Line, d.Check}]++
	}

	want := map[diagKey]int{}
	for _, p := range pkgs {
		ents, err := os.ReadDir(p.Dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(p.Dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
					want[diagKey{e.Name(), i + 1, m[1]}]++
				}
			}
		}
	}

	for k, n := range want {
		if got[k] != n {
			t.Errorf("%s:%d: want %d %q diagnostic(s), got %d", k.file, k.line, n, k.check, got[k])
		}
	}
	for k, n := range got {
		if want[k] == 0 {
			t.Errorf("%s:%d: unexpected %q diagnostic (x%d)", k.file, k.line, k.check, n)
		}
	}
	if t.Failed() {
		for _, d := range diags {
			t.Logf("got: %s", d)
		}
	}
}

func TestLockGuard(t *testing.T)     { checkFixture(t, "lockguard", LockGuard{}) }
func TestAtomicMix(t *testing.T)     { checkFixture(t, "atomicmix", AtomicMix{}) }
func TestGoroutineLeak(t *testing.T) { checkFixture(t, "goroutineleak", GoroutineLeak{}) }
func TestLockCopy(t *testing.T)      { checkFixture(t, "lockcopy", LockCopy{}) }

// The v2 interprocedural rules: *Locked helper obligations propagate to
// callers, guarded aliases must not outlive the lock region, WaitGroup
// Add/Wait discipline, try-send drop accounting, and the transitive
// zero-allocation prover.
func TestLockGuardHelpers(t *testing.T) { checkFixture(t, "lockedhelper", LockGuard{}) }
func TestLockEscape(t *testing.T)       { checkFixture(t, "lockescape", LockEscape{}) }
func TestWaitGroup(t *testing.T)        { checkFixture(t, "waitgroup", WaitGroupCheck{}) }
func TestChanDrop(t *testing.T)         { checkFixture(t, "chandrop", ChanDrop{}) }
func TestNoAlloc(t *testing.T)          { checkFixture(t, "noalloc", NoAlloc{}) }

func TestRangeDeterminism(t *testing.T) {
	checkFixture(t, "rangedeterminism", RangeDeterminism{})
}

// A path-scoped RangeDeterminism must not fire on packages outside its
// configured suffix list.
func TestRangeDeterminismScoped(t *testing.T) {
	p := fixture(t, "rangedeterminism")
	diags := run(nil, []*Package{p}, []Analyzer{RangeDeterminism{Paths: []string{"internal/query"}}})
	if len(diags) != 0 {
		t.Fatalf("scoped analyzer fired outside its paths: %v", diags)
	}
}

func TestIgnoreDirective(t *testing.T) { checkFixture(t, "ignore", LockGuard{}) }

// TestDeadExport loads the deadexport fixture under its module import path
// and reports on it alone, with a caller package and its bench/ directory
// as context: their uses keep exports alive, and bench/'s own dead export
// goes unreported.
func TestDeadExport(t *testing.T) {
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	root, err := filepath.Abs(filepath.Join("testdata", "src", "deadexport"))
	if err != nil {
		t.Fatal(err)
	}
	path := l.ModPath + "/internal/lint/testdata/src/deadexport"
	var pkgs []*Package
	for _, sub := range []string{"", "caller", "bench"} {
		p, err := l.loadDir(filepath.Join(root, sub), strings.TrimSuffix(path+"/"+sub, "/"))
		if err != nil {
			t.Fatalf("load fixture %s: %v", sub, err)
		}
		pkgs = append(pkgs, p)
	}
	checkPackages(t, pkgs[1:], pkgs[:1], DeadExport{})
	// The waiver must suppress a real finding, not sit there stale.
	diags, _ := RunAll(pkgs[1:], pkgs[:1], []Analyzer{DeadExport{}}, Options{StrictIgnores: true})
	for _, d := range diags {
		if d.Check == "ignore" {
			t.Errorf("%s", d)
		}
	}
}

// Strict-ignore mode turns suppression hygiene into findings: a directive
// naming an unknown check and a directive that no longer suppresses
// anything both fail the run, while a plain run stays silent.
func TestStrictIgnores(t *testing.T) {
	p := fixture(t, "staleignore")
	if diags := run(nil, []*Package{p}, []Analyzer{LockGuard{}}); len(diags) != 0 {
		t.Fatalf("non-strict run should be silent, got %v", diags)
	}
	diags, infos := RunAll(nil, []*Package{p}, []Analyzer{LockGuard{}}, Options{StrictIgnores: true})
	if len(diags) != 2 {
		t.Fatalf("want 2 strict-ignore diagnostics, got %d: %v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Check != "ignore" {
			t.Errorf("want check %q, got %q: %s", "ignore", d.Check, d)
		}
	}
	if len(infos) != 2 {
		t.Fatalf("want 2 inventoried directives, got %d", len(infos))
	}
	for _, inf := range infos {
		if inf.Matched != 0 {
			t.Errorf("directive at %s suppressed %d finding(s); the fixture should have none", inf.Pos, inf.Matched)
		}
	}
}

// TestNoAllocPinsHotPath asserts the //paracosm:noalloc directive sits
// directly on every function the runtime allocation guards measure
// (TestProcessUpdateAllocations, TestKernelZeroAllocs), so the static
// prover and the runtime guard pin the same set.
func TestNoAllocPinsHotPath(t *testing.T) {
	pins := map[string][]string{
		"../core/engine.go":   {"ProcessUpdate"},
		"../core/pipeline.go": {"prepare", "commit", "commitSafe", "findPhase"},
		"../graph/graph.go":   {"NeighborsWithLabel", "DegreeWithLabel"},
		"../graph/intersect.go": {
			"searchNeighbors", "AdvanceNeighbors", "advanceIDs",
			"IntersectNeighborIDs", "IntersectIDsNeighbors",
		},
		"../graph/footprint.go": {"Footprint", "labelRelevant"},
		"../obs/stage.go":       {"Observe", "Start", "Mark", "Lap"},
		"../obs/tracer.go":      {"ServerEvent", "Stage"},
	}
	for file, fns := range pins {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("read %s: %v", file, err)
		}
		lines := strings.Split(string(data), "\n")
		for _, fn := range fns {
			found := false
			for i, line := range lines {
				if !strings.HasPrefix(line, "func ") || !strings.Contains(line, fn+"(") {
					continue
				}
				found = true
				if i == 0 || strings.TrimSpace(lines[i-1]) != "//paracosm:noalloc" {
					t.Errorf("%s: %s is not pinned: the line above its declaration must be //paracosm:noalloc", file, fn)
				}
				break
			}
			if !found {
				t.Errorf("%s: pinned function %s not found; update the pin list", file, fn)
			}
		}
	}
}

// TestLintAlone: a package linted alone, with the rest of the module as
// context, gets the verdict it gets under ./...: graph's noalloc waivers
// are reached from core's roots, and concurrent's Pool.Size is called from
// core.
func TestLintAlone(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow; skipped with -short")
	}
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	module, err := l.LoadPatterns(nil)
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	for _, pat := range []string{"./internal/graph", "./internal/concurrent"} {
		pkgs, err := l.LoadPatterns([]string{pat})
		if err != nil {
			t.Fatalf("load %s: %v", pat, err)
		}
		diags, _ := RunAll(module, pkgs, DefaultAnalyzers(), Options{StrictIgnores: true})
		for _, d := range diags {
			t.Errorf("%s alone: %s", pat, d)
		}
	}
}

// TestRepoClean is the self-hosting gate: the full default suite over the
// whole module must be silent (any intentional violation carries a
// //lint:ignore annotation in-source).
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow; skipped with -short")
	}
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := l.LoadPatterns([]string{"./..."})
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; pattern resolution is broken", len(pkgs))
	}
	// The observability layer's ring/histogram mutexes and the serving
	// layer's per-connection goroutines carry `// guarded by` annotations
	// and join-via-Close spawns; make sure the gate actually sees both
	// packages rather than silently passing on a load failure.
	for _, path := range []string{"paracosm/internal/obs", "paracosm/internal/server", "paracosm/internal/concurrent", "paracosm/internal/wal"} {
		found := false
		for _, p := range pkgs {
			if p.Path == path {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s not among loaded packages; the analyzers do not cover it", path)
		}
	}
	diags, infos := RunAll(nil, pkgs, DefaultAnalyzers(), Options{StrictIgnores: true})
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	// Every shipped //lint:ignore must earn its keep: strict mode already
	// failed above on stale ones, so just log the inventory for the record.
	for _, inf := range infos {
		t.Logf("directive: %s //lint:ignore %s (%s) — suppressed %d", inf.Pos, inf.Check, inf.Reason, inf.Matched)
	}
}
