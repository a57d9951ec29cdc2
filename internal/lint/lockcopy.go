package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// LockCopy is a generics-aware copylocks: it flags by-value copies of any
// type that (transitively, through struct fields, arrays, and instantiated
// type arguments) contains a sync.Mutex, sync.RWMutex, or other no-copy
// sync primitive. Because the check runs on go/types object types rather
// than syntax, instantiations like concurrent.Job[csm.State] are seen
// with their concrete field types — the paths go vet's copylocks misses in
// some instantiation chains. Flagged sites: value receivers, by-value
// parameters and results, assignments, returns, call arguments, and range
// value variables.
type LockCopy struct{}

func (LockCopy) Name() string { return "lockcopy" }

func (LockCopy) Check(pkgs []*Package) []Diagnostic {
	var out []Diagnostic
	for _, p := range pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Recv != nil {
						out = append(out, lockCopyFields(p, n.Recv, "receiver")...)
					}
					out = append(out, lockCopySignature(p, n.Type)...)
				case *ast.FuncLit:
					out = append(out, lockCopySignature(p, n.Type)...)
				case *ast.AssignStmt:
					for _, rhs := range n.Rhs {
						out = append(out, lockCopyValue(p, rhs, "assignment copies")...)
					}
				case *ast.ReturnStmt:
					for _, res := range n.Results {
						out = append(out, lockCopyValue(p, res, "return copies")...)
					}
				case *ast.CallExpr:
					if id, ok := n.Fun.(*ast.Ident); ok {
						if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin && id.Name != "append" {
							return true
						}
					}
					for _, arg := range n.Args {
						out = append(out, lockCopyValue(p, arg, "call passes")...)
					}
				case *ast.RangeStmt:
					if n.Value == nil {
						return true
					}
					// The value variable is a definition, so resolve through
					// Defs (typeOf) rather than the value-expression path.
					if t := typeOf(p.Info, n.Value); t != nil && containsLock(t) {
						out = append(out, diagAt(p, n.Value.Pos(), "lockcopy", fmt.Sprintf(
							"range value copies %s which contains a sync mutex; iterate by index or use pointers", t)))
					}
				}
				return true
			})
		}
	}
	return out
}

// lockCopySignature flags by-value parameters and results of lock types.
func lockCopySignature(p *Package, ft *ast.FuncType) []Diagnostic {
	var out []Diagnostic
	if ft.Params != nil {
		out = append(out, lockCopyFields(p, ft.Params, "parameter")...)
	}
	if ft.Results != nil {
		out = append(out, lockCopyFields(p, ft.Results, "result")...)
	}
	return out
}

func lockCopyFields(p *Package, fl *ast.FieldList, kind string) []Diagnostic {
	var out []Diagnostic
	for _, fld := range fl.List {
		t := typeOf(p.Info, fld.Type)
		if t == nil || !containsLock(t) {
			continue
		}
		out = append(out, diagAt(p, fld.Type.Pos(), "lockcopy", fmt.Sprintf(
			"%s passes %s by value; it contains a sync mutex — use a pointer", kind, t)))
	}
	return out
}

// lockCopyValue flags e when it reads an existing value (variable, field,
// element, or dereference) of a lock-containing type — the forms whose use
// as an rvalue performs a copy. Composite literals and calls construct
// fresh values and are exempt; &x takes no copy.
func lockCopyValue(p *Package, e ast.Expr, verb string) []Diagnostic {
	if !copySourceForm(e) {
		return nil
	}
	t := valueType(p.Info, e)
	if t == nil || !containsLock(t) {
		return nil
	}
	return []Diagnostic{diagAt(p, e.Pos(), "lockcopy", fmt.Sprintf(
		"%s %s by value; it contains a sync mutex — use a pointer", verb, t))}
}

func copySourceForm(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	case *ast.ParenExpr:
		return copySourceForm(e.X)
	}
	return false
}
