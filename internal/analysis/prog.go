package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// pooledMarker, in the doc comment of a type declaration, opts the type in
// to poolescape: its values live in a recycled pool/arena, so pointers to
// them must not escape the handler that obtained them. Unlike
// //rollvet:allow it is not a suppression.
const pooledMarker = "rollvet:pooled"

// isPooled reports whether one of the comment groups carries the marker as
// a standalone //rollvet:pooled line (optionally followed by prose).
func isPooled(groups ...*ast.CommentGroup) bool {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			text, ok := strings.CutPrefix(c.Text, "//"+pooledMarker)
			if ok && (text == "" || text[0] == ' ' || text[0] == '\t') {
				return true
			}
		}
	}
	return false
}

// Program is the whole-module view shared by every Pass of one
// CheckPackages run: the //rollvet:pooled types of every loaded package.
type Program struct {
	pooled map[*types.TypeName]bool
}

// buildProgram indexes the pooled types declared in pkgs.
func buildProgram(pkgs []*Package) *Program {
	pr := &Program{pooled: make(map[*types.TypeName]bool)}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				d, ok := decl.(*ast.GenDecl)
				if !ok || d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !isPooled(d.Doc, ts.Doc, ts.Comment) {
						continue
					}
					if obj, ok := pkg.Info.Defs[ts.Name].(*types.TypeName); ok {
						pr.pooled[obj] = true
					}
				}
			}
		}
	}
	return pr
}

// calleeOf resolves a call to the *types.Func it statically invokes:
// package functions, methods (through concrete or interface receivers), but
// not function values, conversions, or builtins.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// pooledPtrElem returns the pooled type name when t is a pointer to a
// //rollvet:pooled named type, and nil otherwise. Value copies of a pooled
// type are deliberately legal: copying the payload out of a slot is exactly
// how handlers are supposed to survive pool recycling.
func (pr *Program) pooledPtrElem(t types.Type) *types.TypeName {
	if t == nil || len(pr.pooled) == 0 {
		return nil
	}
	ptr, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return nil
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || !pr.pooled[named.Obj()] {
		return nil
	}
	return named.Obj()
}
