package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// StableWrite guards the durability contract of output commit: the f+1
// stability guarantee holds only if every stable-storage write and every
// wire encode/decode failure is observed. Two rules:
//
//  1. An error result from a function in internal/storage or internal/wire
//     must not be discarded — not dropped at statement level, not assigned
//     to _, not thrown away by go/defer.
//  2. A wire.Reader bound from NewReader must have Err() or Done()
//     consulted before its decoded values are trusted (the reader is
//     sticky-error by design; reading past truncation yields zeros, which
//     then masquerade as protocol state). A reader that escapes — passed
//     to another function, returned, stored — is the callee's
//     responsibility and is not flagged.
var StableWrite = &Analyzer{
	Name: "stablewrite",
	Doc:  "storage/wire errors must be checked; wire readers must consult Err or Done",
	Run:  runStableWrite,
}

// stablePackages are the package names whose error results guard
// durability or frame integrity.
var stablePackages = map[string]bool{
	"storage": true,
	"wire":    true,
}

func runStableWrite(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if fn, _ := stableErrCallee(pass.Info, n.X); fn != nil {
					reportDiscard(pass, n.Pos(), fn)
				}
			case *ast.GoStmt:
				if fn, _ := stableErrCallee(pass.Info, n.Call); fn != nil {
					reportDiscard(pass, n.Pos(), fn)
				}
			case *ast.DeferStmt:
				if fn, _ := stableErrCallee(pass.Info, n.Call); fn != nil {
					reportDiscard(pass, n.Pos(), fn)
				}
			case *ast.AssignStmt:
				checkBlankErr(pass, n)
			case *ast.FuncDecl:
				if n.Body != nil {
					checkReaderVars(pass, n.Body)
				}
			case *ast.SelectorExpr:
				// Chained read off an unbound reader:
				// wire.NewReader(data).U32() has no variable through which
				// Err could ever be consulted.
				if call, ok := unparen(n.X).(*ast.CallExpr); ok &&
					isNewReader(pass.Info, call) && !isReaderCheck(n.Sel.Name) {
					pass.Reportf(n.Sel.Pos(),
						"value read from an unchecked wire.Reader; bind the reader and consult Err or Done")
				}
			}
			return true
		})
	}
}

func reportDiscard(pass *Pass, pos token.Pos, fn *types.Func) {
	pass.Reportf(pos,
		"error result of %s.%s is discarded; check it or annotate //rollvet:allow stablewrite -- <reason>",
		fn.Pkg().Name(), fn.Name())
}

// stableErrCallee resolves expr to a call of a storage/wire function whose
// final result is an error, returning the callee and that result's index.
func stableErrCallee(info *types.Info, expr ast.Expr) (*types.Func, int) {
	call, ok := unparen(expr).(*ast.CallExpr)
	if !ok {
		return nil, 0
	}
	fn := calleeOf(info, call)
	if fn == nil || fn.Pkg() == nil || !stablePackages[fn.Pkg().Name()] {
		return nil, 0
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return nil, 0
	}
	last := sig.Results().Len() - 1
	if !isErrorType(sig.Results().At(last).Type()) {
		return nil, 0
	}
	return fn, last
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// checkBlankErr flags assignments that route a stable error into the blank
// identifier, in both the multi-value form env, _ := Decode(b) and the
// paired form _ = st.Sync().
func checkBlankErr(pass *Pass, as *ast.AssignStmt) {
	flag := func(lhs ast.Expr, fn *types.Func) {
		if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
			reportDiscard(pass, id.Pos(), fn)
		}
	}
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		if fn, errIdx := stableErrCallee(pass.Info, as.Rhs[0]); fn != nil && errIdx < len(as.Lhs) {
			flag(as.Lhs[errIdx], fn)
		}
		return
	}
	for i, rhs := range as.Rhs {
		if i >= len(as.Lhs) {
			break
		}
		if fn, _ := stableErrCallee(pass.Info, rhs); fn != nil {
			flag(as.Lhs[i], fn)
		}
	}
}

// isNewReader reports whether call constructs a wire.Reader.
func isNewReader(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeOf(info, call)
	return fn != nil && (fn.Name() == "NewReader" || fn.Name() == "NewImageReader") &&
		fn.Pkg() != nil && fn.Pkg().Name() == "wire"
}

func isReaderCheck(name string) bool { return name == "Err" || name == "Done" }

// readerState tracks one reader-typed local bound from NewReader.
type readerState struct {
	def     token.Pos
	read    bool // a decode method was called on it
	checked bool // Err or Done was consulted
	escaped bool // passed on, returned, or otherwise out of local custody
}

// checkReaderVars enforces rule 2 over the locals of one function body.
func checkReaderVars(pass *Pass, body *ast.BlockStmt) {
	readers := make(map[*types.Var]*readerState)
	var order []*types.Var

	// First pass: find r := NewReader(...) bindings.
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := unparen(rhs).(*ast.CallExpr)
			if !ok || !isNewReader(pass.Info, call) {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			if v, ok := pass.Info.Defs[id].(*types.Var); ok {
				readers[v] = &readerState{def: id.Pos()}
				order = append(order, v)
			}
		}
		return true
	})
	if len(readers) == 0 {
		return
	}

	// Second pass: classify every use. An ident consumed as the X of a
	// selector is a method access (Err/Done checks, decode reads); anything
	// else — argument, return value, reassignment source — is an escape.
	consumed := make(map[*ast.Ident]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			id, ok := unparen(n.X).(*ast.Ident)
			if !ok {
				return true
			}
			v, _ := pass.Info.Uses[id].(*types.Var)
			st := readers[v]
			if st == nil {
				return true
			}
			consumed[id] = true
			if isReaderCheck(n.Sel.Name) {
				st.checked = true
			} else {
				st.read = true
			}
		case *ast.AssignStmt:
			// A rebinding target is neither a read nor an escape.
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					if v, _ := pass.Info.Uses[id].(*types.Var); v != nil && readers[v] != nil {
						consumed[id] = true
					}
				}
			}
		case *ast.Ident:
			v, _ := pass.Info.Uses[n].(*types.Var)
			if st := readers[v]; st != nil && !consumed[n] {
				st.escaped = true
			}
		}
		return true
	})

	for _, v := range order {
		st := readers[v]
		if st.read && !st.checked && !st.escaped {
			pass.Reportf(st.def,
				"wire.Reader %s is read but neither Err nor Done is ever consulted; truncated input would decode as zeros",
				v.Name())
		}
	}
}
