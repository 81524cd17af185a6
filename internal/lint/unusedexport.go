package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The unused-export analyzer. An exported identifier of an internal
// package is API only this module can call; if no non-test package
// names it, it is code kept in sync for nobody. A finding is a
// package-level exported func, type or var of a package whose import
// path contains "/internal/", with no use from any loaded (non-test)
// package. Uses inside the object's own declaration do not count: a
// recursive call, or a type named only inside its own methods. Methods
// and consts are out of scope: a method can satisfy an interface
// without being named, and enumerators and label sets are read as a
// set. API kept for a paper-table test carries a
// //crossvet:unused-export <reason> waiver.
func analyzeUnusedExport(m *Module, cfg *Config, r *reporter) {
	// Candidates map to their own declaration ranges; a use from
	// outside those ranges removes the candidate. What remains is
	// reported (seal sorts the findings).
	self := map[types.Object][]span{}
	for _, p := range m.SortedPackages() {
		if !strings.Contains(p.ImportPath, "/internal/") {
			continue
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				collectExportDecl(p, decl, self)
			}
		}
	}
	for _, p := range m.SortedPackages() {
		for id, obj := range p.Info.Uses {
			if spans, ok := self[obj]; ok && !inSpans(spans, id.Pos()) {
				delete(self, obj)
			}
		}
	}
	for obj := range self {
		r.add(obj.Pos(), "unused-export",
			"exported %s %s.%s has no non-test use; delete it or unexport it",
			objKind(obj), pkgBase(obj.Pkg().Path()), obj.Name())
	}
}

// span is one half-open source range of an object's own declaration.
type span struct{ pos, end token.Pos }

func inSpans(spans []span, pos token.Pos) bool {
	for _, s := range spans {
		if s.pos <= pos && pos < s.end {
			return true
		}
	}
	return false
}

// collectExportDecl records the candidate objects one top-level
// declaration defines, with the source ranges that count as their own:
// a func's whole declaration, a type's spec plus every method declared
// on it, and a var's spec.
func collectExportDecl(p *Package, decl ast.Decl, self map[types.Object][]span) {
	own := func(obj types.Object, n ast.Node) {
		if obj != nil && obj.Exported() && obj.Parent() == p.Types.Scope() {
			self[obj] = append(self[obj], span{n.Pos(), n.End()})
		}
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			own(p.Info.Defs[d.Name], d)
		} else if id := recvTypeIdent(d.Recv.List[0].Type); id != nil {
			// A method belongs to its receiver's type: uses of the
			// type inside it are the type's own.
			own(p.Info.Uses[id], d)
		}
	case *ast.GenDecl:
		if d.Tok != token.TYPE && d.Tok != token.VAR {
			return
		}
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				own(p.Info.Defs[s.Name], s)
			case *ast.ValueSpec:
				for _, id := range s.Names {
					own(p.Info.Defs[id], s)
				}
			}
		}
	}
}

// recvTypeIdent unwraps a receiver type expression (*T, T[P], *T[P])
// to the identifier naming T.
func recvTypeIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}

// objKind names the object's declaration keyword for messages.
func objKind(obj types.Object) string {
	switch obj.(type) {
	case *types.Func:
		return "func"
	case *types.TypeName:
		return "type"
	default:
		return "var"
	}
}
