// Package lint implements paracosmvet, a project-specific static-analysis
// suite for ParaCOSM's concurrency invariants and its dead exports. It is
// built purely on the standard library go/ast, go/parser, go/token and
// go/types packages (respecting the module's zero-dependency constraint)
// and checks contracts that go vet cannot express:
//
//   - lockguard:         fields declared "// guarded by <mutex>" are only
//     touched while that mutex is held on the same receiver; lock obligations
//     propagate through the *Locked helper convention (the helper body is
//     licensed, its callers must hold the guard)
//   - lockescape:        a guarded slice/map/pointer value must not be
//     ranged, indexed, or returned outside the region where its mutex is held
//   - atomicmix:         a field accessed through sync/atomic is never also
//     accessed non-atomically
//   - goroutineleak:     every `go func` literal is joinable — it signals a
//     WaitGroup that saw Add in the spawning scope, or sends/closes a channel
//   - waitgroup:         Add/Done/Wait discipline — no Add inside the spawned
//     goroutine, Done deferred when early returns exist, and cross-function
//     Add/Wait serialized by a mutex or a "// Add serialized by" annotation
//   - chandrop:          a select with a default arm that discards a send
//     must increment the counter named by "// drop-counted by <field>"
//   - noalloc:           a //paracosm:noalloc function is transitively free
//     of closures, map/slice literals, growing appends, interface boxing,
//     string concatenation and variadic boxing through same-module calls
//   - rangedeterminism:  no `for range` over maps on result-reporting or
//     matching-order code paths unless the values feed a sort
//   - lockcopy:          generics-aware detection of by-value copies of types
//     containing sync.Mutex / sync.RWMutex (covers Pool[T] instantiations)
//   - deadexport:        an exported function or method in internal/ has a
//     caller in another package's non-test code (the root package, cmd/,
//     examples/ and benchmarks/ count)
//
// Intentional violations are annotated in-source with the escape hatch
//
//	//lint:ignore <check> <reason>
//
// placed on the offending line or the line directly above it. Ignores are
// themselves audited: RunAll in strict mode fails on a directive naming an
// unknown check or matching zero diagnostics.
package lint

import (
	"fmt"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one finding of an analyzer.
type Diagnostic struct {
	Pos     token.Position
	Check   string // analyzer name, e.g. "lockguard"
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Analyzer is one project-specific check. Check receives every loaded
// package at once so analyzers can correlate facts across package
// boundaries (type objects are shared through the loader's import cache).
type Analyzer interface {
	Name() string
	Check(pkgs []*Package) []Diagnostic
}

// DefaultAnalyzers returns the full suite with the repo's production
// configuration: rangedeterminism is scoped to the result-reporting and
// matching-order packages.
func DefaultAnalyzers() []Analyzer {
	return []Analyzer{
		LockGuard{},
		LockEscape{},
		AtomicMix{},
		GoroutineLeak{},
		WaitGroupCheck{},
		ChanDrop{},
		NoAlloc{},
		RangeDeterminism{Paths: []string{"internal/query", "internal/csm", "internal/core"}},
		LockCopy{},
		DeadExport{},
	}
}

// knownChecks returns the names of every check in the registry, whether or
// not it is selected for a given run. Strict ignore validation resolves
// //lint:ignore directives against this set: naming anything else is an
// error even when the named analyzer is disabled for the run.
func knownChecks() map[string]bool {
	known := map[string]bool{}
	for _, a := range DefaultAnalyzers() {
		known[a.Name()] = true
	}
	return known
}

// ignoreRe matches the escape-hatch directive. The check name and a
// non-empty reason are both mandatory.
var ignoreRe = regexp.MustCompile(`^//lint:ignore\s+([A-Za-z][A-Za-z0-9_-]*)\s+(\S.*)$`)

// IgnoreInfo describes one //lint:ignore directive found in the sources and
// how many diagnostics it suppressed during the run.
type IgnoreInfo struct {
	Pos     token.Position
	Check   string
	Reason  string
	Matched int // diagnostics suppressed by this directive
}

// ignoreIndex records, per file and line, which checks are suppressed, and
// tracks every well-formed directive so stale ones can be reported.
type ignoreIndex struct {
	byFileLine map[string]map[int]map[string]*IgnoreInfo
	entries    []*IgnoreInfo
	malformed  []Diagnostic
}

func collectIgnores(pkgs []*Package) *ignoreIndex {
	ix := &ignoreIndex{byFileLine: map[string]map[int]map[string]*IgnoreInfo{}}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, "//lint:ignore") {
						continue
					}
					pos := p.Fset.Position(c.Pos())
					m := ignoreRe.FindStringSubmatch(c.Text)
					if m == nil {
						ix.malformed = append(ix.malformed, Diagnostic{
							Pos:     pos,
							Check:   "ignore",
							Message: "malformed directive: want //lint:ignore <check> <reason>",
						})
						continue
					}
					ent := &IgnoreInfo{Pos: pos, Check: m[1], Reason: m[2]}
					ix.entries = append(ix.entries, ent)
					lines := ix.byFileLine[pos.Filename]
					if lines == nil {
						lines = map[int]map[string]*IgnoreInfo{}
						ix.byFileLine[pos.Filename] = lines
					}
					checks := lines[pos.Line]
					if checks == nil {
						checks = map[string]*IgnoreInfo{}
						lines[pos.Line] = checks
					}
					checks[m[1]] = ent
				}
			}
		}
	}
	return ix
}

// suppressed reports whether d is covered by an ignore directive on the
// same line or the line directly above, crediting the directive's match
// count when it is.
func (ix *ignoreIndex) suppressed(d Diagnostic) bool {
	lines := ix.byFileLine[d.Pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		if ent := lines[line][d.Check]; ent != nil {
			ent.Matched++
			return true
		}
	}
	return false
}

// Options configures a RunAll invocation.
type Options struct {
	// StrictIgnores makes the run fail on escape-hatch rot: an ignore
	// directive naming a check outside knownChecks (always an error — a
	// typo silences nothing), or one that suppressed zero diagnostics of
	// an analyzer that actually ran (the code it excused has been fixed,
	// so the directive is stale and must be deleted).
	StrictIgnores bool
}

// RunAll executes every analyzer over module and pkgs together, filters
// findings through the //lint:ignore directives, and returns the surviving
// diagnostics in pkgs in deterministic (file, line, column, check) order.
// Malformed ignore directives are themselves reported. It additionally
// returns every well-formed //lint:ignore directive of pkgs with its
// suppression count (in source order) so callers can report on the
// escape-hatch inventory.
//
// The packages of module only widen what the analyzers see: a use there
// keeps an export alive, and a //paracosm:noalloc root there makes what it
// reaches checked, but their own findings and directives are left out.
// paracosmvet passes the whole module, so a package's verdict does not
// depend on which others were named with it.
func RunAll(module, pkgs []*Package, analyzers []Analyzer, opts Options) ([]Diagnostic, []IgnoreInfo) {
	reported := map[string]bool{} // the files of pkgs
	in := map[*Package]bool{}
	all := pkgs[:len(pkgs):len(pkgs)]
	for _, p := range pkgs {
		in[p] = true
		for _, f := range p.Files {
			reported[p.Fset.File(f.Pos()).Name()] = true
		}
	}
	for _, p := range module {
		if !in[p] {
			in[p] = true
			all = append(all, p)
		}
	}
	ix := collectIgnores(all)
	var out []Diagnostic
	add := func(d Diagnostic) {
		if reported[d.Pos.Filename] {
			out = append(out, d)
		}
	}
	for _, d := range ix.malformed {
		add(d)
	}
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name()] = true
		for _, d := range a.Check(all) {
			if !ix.suppressed(d) {
				add(d)
			}
		}
	}
	var entries []*IgnoreInfo
	for _, ent := range ix.entries {
		if reported[ent.Pos.Filename] {
			entries = append(entries, ent)
		}
	}
	if opts.StrictIgnores {
		known := knownChecks()
		for _, ent := range entries {
			switch {
			case !known[ent.Check]:
				out = append(out, Diagnostic{Pos: ent.Pos, Check: "ignore", Message: fmt.Sprintf(
					"directive names unknown check %q (known: %s)", ent.Check, knownCheckList())})
			case ran[ent.Check] && ent.Matched == 0:
				out = append(out, Diagnostic{Pos: ent.Pos, Check: "ignore", Message: fmt.Sprintf(
					"stale directive: no %s diagnostic is suppressed here — delete it (reason was: %s)",
					ent.Check, ent.Reason)})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	infos := make([]IgnoreInfo, len(entries))
	for i, ent := range entries {
		infos[i] = *ent
	}
	sort.Slice(infos, func(i, j int) bool {
		a, b := infos[i], infos[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return out, infos
}

func knownCheckList() string {
	var names []string
	for name := range knownChecks() {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
