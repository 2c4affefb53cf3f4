package analysis

import (
	"go/ast"
	"go/types"
)

// Import paths of the packages whose contracts the analyzers enforce.
const (
	enginePath = "vavg/internal/engine"
	wirePath   = "vavg/internal/wire"
)

// funcInfo is one function with a body: a declaration or a literal.
type funcInfo struct {
	node ast.Node // *ast.FuncDecl or *ast.FuncLit
	body *ast.BlockStmt
	sig  *types.Signature
	doc  *ast.CommentGroup // non-nil only for documented declarations
}

// funcsIn collects every function declaration and literal in the file,
// with resolved signatures.
func funcsIn(pass *Pass, file *ast.File) []funcInfo {
	var funcs []funcInfo
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body == nil {
				return true
			}
			obj, _ := pass.Info.Defs[n.Name].(*types.Func)
			if obj == nil {
				return true
			}
			funcs = append(funcs, funcInfo{node: n, body: n.Body, sig: obj.Type().(*types.Signature), doc: n.Doc})
		case *ast.FuncLit:
			sig, _ := pass.TypeOf(n).(*types.Signature)
			if sig == nil {
				return true
			}
			funcs = append(funcs, funcInfo{node: n, body: n.Body, sig: sig})
		}
		return true
	})
	return funcs
}

// dePtr unwraps one level of pointer.
func dePtr(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// isNamed reports whether t (after unwrapping one pointer) is the named
// type path.name. Type aliases (vavg.API = engine.API) resolve to the
// same named type, so algorithm code matching is path-stable.
func isNamed(t types.Type, path, name string) bool {
	if t == nil {
		return false
	}
	n, ok := dePtr(t).(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == path && n.Obj().Name() == name
}

// isAPIPtr reports whether t is *engine.API (under any alias).
func isAPIPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	return ok && isNamed(p.Elem(), enginePath, "API")
}

// sigHasAPIParam reports whether any parameter of sig is *engine.API —
// the marker of vertex code: Programs, StepPrograms, StepFns, and the
// helpers they call all receive the API handle.
func sigHasAPIParam(sig *types.Signature) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isAPIPtr(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// sigIsStepForm reports whether sig is step-turn code: it receives the
// vertex API and produces an engine.Step verdict. This matches StepFn
// itself and the vertex-struct helpers a turn returns its verdict through.
func sigIsStepForm(sig *types.Signature) bool {
	if !sigHasAPIParam(sig) {
		return false
	}
	results := sig.Results()
	for i := 0; i < results.Len(); i++ {
		if isNamed(results.At(i).Type(), enginePath, "Step") {
			return true
		}
	}
	return false
}

// calleeObj resolves the object a call expression invokes: a function,
// method, builtin, or conversion target. Returns nil when unresolvable.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj()
		}
		return info.Uses[fun.Sel] // package-qualified call
	}
	return nil
}

// pkgFunc reports the defining package path and name of a call to a
// package-level function (not a method), or ok=false.
func pkgFunc(info *types.Info, call *ast.CallExpr) (path, name string, ok bool) {
	fn, isFn := calleeObj(info, call).(*types.Func)
	if !isFn || fn.Pkg() == nil {
		return "", "", false
	}
	if sig, isSig := fn.Type().(*types.Signature); isSig && sig.Recv() != nil {
		return "", "", false
	}
	return fn.Pkg().Path(), fn.Name(), true
}

// apiMethod reports the method name when call invokes a method whose
// receiver is *engine.API, or ok=false.
func apiMethod(info *types.Info, call *ast.CallExpr) (name string, ok bool) {
	fn, isFn := calleeObj(info, call).(*types.Func)
	if !isFn {
		return "", false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil || !isAPIPtr(sig.Recv().Type()) {
		return "", false
	}
	return fn.Name(), true
}

// isBuiltinCall reports whether call invokes the named builtin.
func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// walkSkippingFuncLits visits the subtree of each statement, not
// descending into function literals (which are analyzed as functions of
// their own).
func walkSkippingFuncLits(n ast.Node, visit func(ast.Node) bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		return visit(n)
	})
}
