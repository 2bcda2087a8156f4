package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// MapOrder flags range statements over maps, inside the deterministic
// packages, whose body can leak Go's randomized iteration order into
// protocol-visible state. A loop body is risky when it
//
//   - appends (the resulting slice order depends on iteration order),
//   - sends on a channel, or
//   - calls any function or method with a loop variable in reach (the
//     callee may record, transmit, or encode the element).
//
// Pure reads that fold commutatively (counting, min/max without calls,
// existence checks) pass. The fix is to iterate sorted keys or, when the
// body is provably commutative (e.g. deleting a value-independent subset),
// to annotate the loop:
//
//	//rollvet:allow maporder -- <why the order cannot be observed>
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "map iteration order must not reach messages, checkpoints, or replay schedules",
	Run:  runMapOrder,
}

func runMapOrder(pass *Pass) {
	if !detPackages[pass.Pkg.Name] {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.Info.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			loopVars := rangeVars(pass, rs)
			if risk := bodyRisk(pass, rs.Body, loopVars); risk != "" {
				pass.Reportf(rs.Pos(),
					"iterating %s in randomized map order %s; iterate sorted keys or annotate //rollvet:allow maporder -- <reason>",
					types.TypeString(t, types.RelativeTo(pass.TypesPkg)), risk)
			}
			return true
		})
	}
}

// rangeVars collects the objects bound by the range statement's key and
// value, for both := and = forms.
func rangeVars(pass *Pass, rs *ast.RangeStmt) map[types.Object]bool {
	vars := make(map[types.Object]bool)
	for _, expr := range []ast.Expr{rs.Key, rs.Value} {
		id, ok := expr.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		if obj := pass.Info.Defs[id]; obj != nil {
			vars[obj] = true
		} else if obj := pass.Info.Uses[id]; obj != nil {
			vars[obj] = true
		}
	}
	return vars
}

// bodyRisk describes why the loop body is order-sensitive, or returns "".
func bodyRisk(pass *Pass, body *ast.BlockStmt, loopVars map[types.Object]bool) string {
	risk := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if risk != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			risk = "and sending on a channel"
		case *ast.CallExpr:
			switch builtinName(pass, n) {
			case "append":
				risk = "and appending per element"
				return false
			case "len", "cap":
				// Pure; safe regardless of arguments.
				return false
			}
			if usesAny(pass, n, loopVars) {
				risk = fmt.Sprintf("and calling %s with the iteration element", callName(n))
				return false
			}
		}
		return true
	})
	return risk
}

// builtinName returns the name of the builtin being called, or "".
func builtinName(pass *Pass, call *ast.CallExpr) string {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return ""
	}
	if _, ok := pass.Info.Uses[id].(*types.Builtin); !ok {
		return ""
	}
	return id.Name
}

// usesAny reports whether the expression mentions any of the given objects.
func usesAny(pass *Pass, node ast.Node, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && objs[pass.Info.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}

// callName renders the callee for the diagnostic.
func callName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	default:
		return "a function"
	}
}
