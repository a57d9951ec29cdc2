package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string // import path ("paracosm/internal/graph") or fixture tag
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader loads and type-checks packages of a single module using only the
// standard library: module packages are parsed from source and type-checked
// recursively; standard-library imports are resolved with the stdlib
// "source" importer. Test files (_test.go) are excluded — the invariants
// paracosmvet enforces live in production code, and external test packages
// would need a second type-checking universe.
type Loader struct {
	ModRoot string // absolute module root (directory holding go.mod)
	ModPath string // module path from go.mod

	fset  *token.FileSet
	cache map[string]*loadResult
	std   types.Importer
	sizes types.Sizes
}

type loadResult struct {
	pkg *Package
	err error
}

var moduleRe = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// NewLoader creates a loader rooted at the module directory containing
// go.mod. Cgo is disabled for file selection so the pure-Go variants of
// standard-library packages are type-checked.
func NewLoader(modRoot string) (*Loader, error) {
	abs, err := filepath.Abs(modRoot)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: module root %s: %w", abs, err)
	}
	m := moduleRe.FindSubmatch(data)
	if m == nil {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", abs)
	}
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	sizes := types.SizesFor("gc", runtime.GOARCH)
	if sizes == nil {
		sizes = types.SizesFor("gc", "amd64")
	}
	return &Loader{
		ModRoot: abs,
		ModPath: string(m[1]),
		fset:    fset,
		cache:   map[string]*loadResult{},
		std:     importer.ForCompiler(fset, "source", nil),
		sizes:   sizes,
	}, nil
}

// Import implements types.Importer: module-internal paths are loaded from
// source; "unsafe" and the standard library are delegated.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
		p, err := l.loadDir(filepath.Join(l.ModRoot, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// loadDir parses and type-checks the package in dir, caching by import path.
func (l *Loader) loadDir(dir, path string) (*Package, error) {
	if r, ok := l.cache[path]; ok {
		return r.pkg, r.err
	}
	// Mark in-flight to surface import cycles as errors instead of hanging.
	l.cache[path] = &loadResult{err: fmt.Errorf("lint: import cycle through %s", path)}
	pkg, err := l.check(dir, path)
	l.cache[path] = &loadResult{pkg: pkg, err: err}
	return pkg, err
}

func (l *Loader) check(dir, path string) (*Package, error) {
	names, err := goSources(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go source files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	cfg := types.Config{Importer: l, Sizes: l.sizes}
	tpkg, err := cfg.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}

// goSources lists the non-test Go files of dir in sorted order, skipping
// hidden/underscore files and files opting out via a "//go:build ignore"
// constraint.
func goSources(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		if buildIgnored(data) {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

var buildIgnoreRe = regexp.MustCompile(`(?m)^//go:build\s+ignore\s*$`)

func buildIgnored(src []byte) bool {
	// Build constraints must appear before the package clause; checking the
	// first 1 KiB is enough in practice.
	head := src
	if len(head) > 1024 {
		head = head[:1024]
	}
	return buildIgnoreRe.Match(head)
}

// LoadPatterns resolves go-tool-style patterns ("./...", "./internal/graph",
// "dir/...") into loaded packages. Directories named "testdata" and hidden
// directories are skipped during recursive walks.
func (l *Loader) LoadPatterns(patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirSet := map[string]bool{}
	var dirs []string
	add := func(d string) {
		if !dirSet[d] {
			dirSet[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if pat == "all" {
			pat = "./..."
		}
		if strings.HasSuffix(pat, "/...") || pat == "..." {
			recursive = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
			if pat == "" {
				pat = "."
			}
		}
		root := pat
		if !filepath.IsAbs(root) {
			root = filepath.Join(l.ModRoot, filepath.FromSlash(pat))
		}
		if !recursive {
			add(root)
			continue
		}
		err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if names, err := goSources(p); err == nil && len(names) > 0 {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		path, err := l.importPathFor(dir)
		if err != nil {
			return nil, err
		}
		p, err := l.loadDir(dir, path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.ModRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: directory %s is outside module %s", dir, l.ModRoot)
	}
	if rel == "." {
		return l.ModPath, nil
	}
	return l.ModPath + "/" + filepath.ToSlash(rel), nil
}
