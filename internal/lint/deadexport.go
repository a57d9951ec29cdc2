package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// DeadExport flags an exported function or method declared in an
// internal/ package that no other package uses from a non-test file.
// Such an export is either dead, kept alive by its own tests only, or
// called only inside its package; each finding is deleted, unexported, or
// waived with //lint:ignore deadexport <reason> (reference and oracle
// APIs whose only callers are tests).
//
// Uses are resolved through the type checker across every loaded
// package. Go sources under Root that the run did not load — the nested
// benchmarks module when it is not among the patterns, or any package
// left out of a partial run — are scanned syntactically instead: a
// selector naming the export counts as a use. A method whose name is a
// method of any interface type the loaded packages declare or use is
// exempt, since a call through the interface does not name the concrete
// method (String, Error, csm.Rebuilder's RebuildADS).
type DeadExport struct {
	// Root is the directory scanned for callers outside the loaded
	// packages. Empty means the module root: the nearest directory
	// holding go.mod above the first loaded package.
	Root string
}

func (DeadExport) Name() string { return "deadexport" }

func (d DeadExport) Check(pkgs []*Package) []Diagnostic {
	if len(pkgs) == 0 {
		return nil
	}
	used := map[*types.Func]bool{}
	ifaceMethods := map[string]bool{}
	seen := map[types.Type]bool{}
	loaded := map[string]bool{}
	for _, p := range pkgs {
		loaded[p.Dir] = true
		for _, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && fn.Pkg() != p.Types {
				used[fn.Origin()] = true
			}
			collectIfaceMethods(obj.Type(), ifaceMethods, seen)
		}
		for _, obj := range p.Info.Defs {
			if obj != nil {
				collectIfaceMethods(obj.Type(), ifaceMethods, seen)
			}
		}
		for _, tv := range p.Info.Types {
			collectIfaceMethods(tv.Type, ifaceMethods, seen)
		}
	}
	root := d.Root
	if root == "" {
		root = moduleRoot(pkgs[0].Dir)
	}
	scanned := selectorNames(root, loaded)

	var out []Diagnostic
	for _, p := range pkgs {
		if !strings.Contains("/"+p.Path+"/", "/internal/") {
			continue
		}
		for _, fd := range funcDecls(p) {
			if !fd.Name.IsExported() {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok || used[fn] || scanned[fd.Name.Name] {
				continue
			}
			what := "func " + p.Types.Name() + "." + fd.Name.Name
			if fd.Recv != nil {
				if ifaceMethods[fd.Name.Name] {
					continue
				}
				what = "method " + types.TypeString(fn.Type().(*types.Signature).Recv().Type(), types.RelativeTo(p.Types)) +
					"." + fd.Name.Name
			}
			out = append(out, diagAt(p, fd.Name.Pos(), "deadexport", fmt.Sprintf(
				"exported %s has no caller outside its package in non-test code; delete it, unexport it, "+
					"or waive it with //lint:ignore deadexport <reason>", what)))
		}
	}
	return out
}

// collectIfaceMethods adds the method names of every interface type
// reachable from t through composite types and signatures.
func collectIfaceMethods(t types.Type, names map[string]bool, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		collectIfaceMethods(t.Underlying(), names, seen)
	case *types.Alias:
		collectIfaceMethods(types.Unalias(t), names, seen)
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			names[t.Method(i).Name()] = true
		}
	case *types.Pointer:
		collectIfaceMethods(t.Elem(), names, seen)
	case *types.Slice:
		collectIfaceMethods(t.Elem(), names, seen)
	case *types.Array:
		collectIfaceMethods(t.Elem(), names, seen)
	case *types.Chan:
		collectIfaceMethods(t.Elem(), names, seen)
	case *types.Map:
		collectIfaceMethods(t.Key(), names, seen)
		collectIfaceMethods(t.Elem(), names, seen)
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				collectIfaceMethods(tup.At(i).Type(), names, seen)
			}
		}
	}
}

// moduleRoot returns the nearest directory at or above dir holding a
// go.mod, or dir itself when there is none.
func moduleRoot(dir string) string {
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		parent := filepath.Dir(d)
		if parent == d {
			return dir
		}
		d = parent
	}
}

// selectorNames parses the non-test Go files under root that lie outside
// the loaded package directories and returns every name they select
// (x.Name). Directories are skipped as LoadPatterns skips them.
func selectorNames(root string, loaded map[string]bool) map[string]bool {
	names := map[string]bool{}
	fset := token.NewFileSet()
	_ = filepath.WalkDir(root, func(p string, e os.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return nil
		}
		name := e.Name()
		if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if loaded[p] {
			return nil
		}
		files, err := goSources(p)
		if err != nil {
			return nil
		}
		for _, f := range files {
			af, err := parser.ParseFile(fset, filepath.Join(p, f), nil, parser.SkipObjectResolution)
			if err != nil {
				continue
			}
			ast.Inspect(af, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					names[sel.Sel.Name] = true
				}
				return true
			})
		}
		return nil
	})
	return names
}
