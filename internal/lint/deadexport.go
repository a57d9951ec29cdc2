package lint

import (
	"fmt"
	"go/types"
	"strings"
)

// DeadExport flags an exported function or method declared in an
// internal/ package that no other package uses from a non-test file.
// Such an export is either dead, kept alive by its own tests only, or
// called only inside its package; each finding is deleted, unexported, or
// waived with //lint:ignore deadexport <reason> (reference and oracle
// APIs whose only callers are tests).
//
// Uses are resolved through the type checker across every package the
// analyzer is given, which for paracosmvet is the whole module, the
// nested benchmarks module included (see RunAll). A method whose
// name is a method of any interface type those packages declare or use is
// exempt, since a call through the interface does not name the concrete
// method (String, Error, csm.Rebuilder's RebuildADS).
type DeadExport struct{}

func (DeadExport) Name() string { return "deadexport" }

func (DeadExport) Check(pkgs []*Package) []Diagnostic {
	used := map[*types.Func]bool{}
	ifaceMethods := map[string]bool{}
	seen := map[types.Type]bool{}
	for _, p := range pkgs {
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
			if !ok || used[fn] {
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
