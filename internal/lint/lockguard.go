package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// LockGuard enforces the "// guarded by <mutexField>" convention: a struct
// field (or package-level variable) whose doc or line comment carries the
// marker may only be read or written inside a function that locks that
// mutex on the same receiver chain. The analysis is flow-insensitive within
// a function declaration: any Lock/RLock call on "<base>.<mutex>" anywhere
// in the function licenses accesses to "<base>.<field>" in that function.
//
// v2 is interprocedural through the repo's *Locked helper convention. A
// method whose name ends in "Locked" is a helper that runs with its
// receiver's guard already held: its body is licensed to touch guarded
// fields on the receiver without locking, and in exchange every caller of
// x.fooLocked() must hold x's guard at the call. The obligation — which
// mutexes the helper's body (transitively, through other *Locked helpers it
// calls) relies on — is computed by fixed point, so a helper that merely
// forwards to another helper inherits its requirements.
//
// Single-writer phases that intentionally skip the mutex must annotate with
// //lint:ignore lockguard <reason>.
type LockGuard struct{}

func (LockGuard) Name() string { return "lockguard" }

var guardRe = regexp.MustCompile(`guarded by\s+([A-Za-z_][A-Za-z0-9_]*)`)

func guardName(groups ...*ast.CommentGroup) string {
	for _, g := range groups {
		if g == nil {
			continue
		}
		if m := guardRe.FindStringSubmatch(g.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// collectGuards indexes every "// guarded by" annotation across the loaded
// packages (struct fields and package-level variables) by type object, so
// cross-package accesses to exported guarded fields are still checked.
func collectGuards(pkgs []*Package) map[types.Object]string {
	guards := map[types.Object]string{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.StructType:
					for _, fld := range n.Fields.List {
						mu := guardName(fld.Doc, fld.Comment)
						if mu == "" {
							continue
						}
						for _, name := range fld.Names {
							if o := p.Info.Defs[name]; o != nil {
								guards[o] = mu
							}
						}
					}
				case *ast.GenDecl:
					if n.Tok != token.VAR {
						return true
					}
					for _, spec := range n.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok {
							continue
						}
						mu := guardName(vs.Doc, vs.Comment)
						if mu == "" && len(n.Specs) == 1 {
							mu = guardName(n.Doc)
						}
						if mu == "" {
							continue
						}
						for _, name := range vs.Names {
							if o := p.Info.Defs[name]; o != nil {
								guards[o] = mu
							}
						}
					}
				}
				return true
			})
		}
	}
	return guards
}

// lockedHelper is one *Locked-convention method: a body licensed to touch
// guarded receiver state, plus the receiver-relative obligations ("mu",
// "inner.mu") its callers must hold.
type lockedHelper struct {
	site        declSite
	recv        string
	obligations map[string]bool
}

// isHelperDecl reports whether fd is a *Locked-convention method with a
// named receiver. Functions merely *prefixed* "Locked" (the LockedSum of
// the lockedhelper fixture) are self-locking wrappers, not helpers.
func isHelperDecl(fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return false
	}
	name := fd.Name.Name
	return strings.HasSuffix(name, "Locked") && name != "Locked"
}

// lockedSet returns the rendered mutex paths Lock/RLock-ed anywhere in the
// function (flow-insensitive, v1 semantics).
func lockedSet(p *Package, fd *ast.FuncDecl) map[string]bool {
	locked := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock" {
			return true
		}
		if !isMutex(typeOf(p.Info, sel.X)) {
			return true
		}
		if mu := render(sel.X); mu != "" {
			locked[mu] = true
		}
		return true
	})
	return locked
}

// relTo rewrites an absolute want-path ("m.mu", "m.inner.mu") relative to
// the receiver name ("mu", "inner.mu"). ok is false when the path is not
// rooted at the receiver.
func relTo(recv, want string) (string, bool) {
	if strings.HasPrefix(want, recv+".") {
		return want[len(recv)+1:], true
	}
	return "", false
}

func (LockGuard) Check(pkgs []*Package) []Diagnostic {
	guards := collectGuards(pkgs)
	if len(guards) == 0 {
		return nil
	}
	ix := declIndex(pkgs)

	// Phase 1: identify *Locked helpers and seed their obligations with the
	// guarded receiver fields their own bodies touch without locking.
	helpers := map[types.Object]*lockedHelper{}
	lockedCache := map[*ast.FuncDecl]map[string]bool{}
	for obj, site := range ix {
		if !isHelperDecl(site.decl) {
			continue
		}
		h := &lockedHelper{
			site:        site,
			recv:        site.decl.Recv.List[0].Names[0].Name,
			obligations: map[string]bool{},
		}
		helpers[obj] = h
		locked := lockedSet(site.pkg, site.decl)
		lockedCache[site.decl] = locked
		ast.Inspect(site.decl.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := fieldObj(site.pkg.Info, sel)
			if obj == nil {
				return true
			}
			mu, guarded := guards[obj]
			if !guarded {
				return true
			}
			base := render(sel.X)
			if base == "" {
				return true
			}
			want := base + "." + mu
			if locked[want] {
				return true
			}
			if rel, ok := relTo(h.recv, want); ok {
				h.obligations[rel] = true
			}
			return true
		})
	}

	// Phase 2: propagate obligations through helper→helper calls on the
	// receiver chain until a fixed point.
	for changed := true; changed; {
		changed = false
		for _, h := range helpers {
			locked := lockedCache[h.site.decl]
			ast.Inspect(h.site.decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				callee := helpers[h.site.pkg.Info.Uses[sel.Sel]]
				if callee == nil {
					return true
				}
				prefix := render(sel.X)
				if prefix == "" {
					return true
				}
				for ob := range callee.obligations {
					want := prefix + "." + ob
					if locked[want] {
						continue
					}
					if rel, ok := relTo(h.recv, want); ok && !h.obligations[rel] {
						h.obligations[rel] = true
						changed = true
					}
				}
				return true
			})
		}
	}

	var out []Diagnostic
	for _, p := range pkgs {
		for _, fd := range funcDecls(p) {
			out = append(out, lockguardFunc(p, fd, guards, helpers)...)
		}
	}
	return out
}

// lockguardFunc checks one function declaration (including any nested
// function literals, which inherit the enclosing lock set): direct guarded
// accesses must be licensed by a Lock/RLock on the right path — or, inside
// a *Locked helper, deferred to the helper's callers — and every call to a
// *Locked helper must hold the callee's obligations.
func lockguardFunc(p *Package, fd *ast.FuncDecl, guards map[types.Object]string,
	helpers map[types.Object]*lockedHelper) []Diagnostic {
	locked := lockedSet(p, fd)
	var self *lockedHelper
	if o := p.Info.Defs[fd.Name]; o != nil {
		self = helpers[o]
	}
	// satisfied reports whether the absolute want-path is held here: either
	// locked directly, or (inside a helper) part of this helper's own
	// obligations, i.e. discharged by our callers.
	satisfied := func(want string) bool {
		if locked[want] {
			return true
		}
		if self != nil {
			if rel, ok := relTo(self.recv, want); ok && self.obligations[rel] {
				return true
			}
		}
		return false
	}

	var out []Diagnostic
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			callee := helpers[p.Info.Uses[sel.Sel]]
			if callee == nil || len(callee.obligations) == 0 {
				return true
			}
			if tv, ok := p.Info.Types[sel.X]; ok && tv.IsType() {
				return true // method expression T.fooLocked — no receiver value
			}
			prefix := render(sel.X)
			if prefix == "" {
				return true
			}
			for _, ob := range sortedKeys(callee.obligations) {
				want := prefix + "." + ob
				if !satisfied(want) {
					out = append(out, diagAt(p, n.Pos(), "lockguard", fmt.Sprintf(
						"call to %s.%s requires %s held (Lock/RLock) in %s: *Locked helpers run under their caller's lock",
						prefix, sel.Sel.Name, want, fd.Name.Name)))
				}
			}
		case *ast.SelectorExpr:
			obj := fieldObj(p.Info, n)
			if obj == nil {
				return true
			}
			mu, guarded := guards[obj]
			if !guarded {
				return true
			}
			base := render(n.X)
			want := mu
			if base != "" {
				want = base + "." + mu
			}
			if !satisfied(want) {
				out = append(out, diagAt(p, n.Pos(), "lockguard", fmt.Sprintf(
					"%s is guarded by %s but accessed without %s.Lock/RLock in %s",
					render(n), mu, want, fd.Name.Name)))
			}
		case *ast.Ident:
			// Bare identifiers only cover package-level guarded variables;
			// struct fields are handled above via their SelectorExpr (the
			// Sel ident of a field access also resolves to the field object
			// and must not fire twice).
			v, ok := p.Info.Uses[n].(*types.Var)
			if !ok || v.IsField() {
				return true
			}
			if v.Parent() == nil || v.Parent().Parent() != types.Universe {
				return true
			}
			mu, guarded := guards[types.Object(v)]
			if !guarded {
				return true
			}
			if !locked[mu] {
				out = append(out, diagAt(p, n.Pos(), "lockguard", fmt.Sprintf(
					"%s is guarded by %s but accessed without %s.Lock in %s",
					n.Name, mu, mu, fd.Name.Name)))
			}
		}
		return true
	})
	return out
}

func sortedKeys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	// insertion sort: obligation sets are tiny
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func diagAt(p *Package, pos token.Pos, check, msg string) Diagnostic {
	return Diagnostic{Pos: p.Fset.Position(pos), Check: check, Message: msg}
}
