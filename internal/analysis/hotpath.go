package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Hotpath statically backs the 0-allocs/op gate (TestMessagePathAllocs
// and the steady-state integration gate): functions annotated with a
// //vavg:hotpath doc-comment directive — the message-path and step-
// scheduler inner loops — must stay free of the constructs that put
// allocations back on the per-message/per-round path:
//
//   - map literals and make(map[...]) — hashing and growth on every
//     message or round;
//   - calls into fmt — formatting allocates and boxes;
//   - interface boxing: explicit conversions to interface types,
//     concrete arguments passed to interface-typed parameters, concrete
//     values declared as or assigned to interface-typed variables (`var
//     x any = v`, `x = v`), and concrete values stored into
//     interface-typed fields of struct composite literals (`T{f: v}`),
//     which box even when the box stays on the stack and the allocation
//     gates see nothing;
//   - uncapped appends: appends to slices that provably lack reserved
//     capacity (declared var s []T, empty literals, or two-argument
//     make). Appends to parameters, struct fields, and three-argument
//     slab slices are trusted — the engine's reuse discipline caps those.
//
// Error guards that end in panic are cold by construction and are
// exempt, so bounds-check panics may format rich context freely.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "//vavg:hotpath functions must not allocate: no map literals, fmt, boxing, or uncapped append",
	Run:  runHotpath,
}

// hotpathDirective marks a function as part of the allocation-free path.
const hotpathDirective = "//vavg:hotpath"

func runHotpath(pass *Pass) {
	for _, file := range pass.Files {
		for _, fn := range funcsIn(pass, file) {
			if !hasDirective(fn.doc, hotpathDirective) {
				continue
			}
			uncapped := uncappedSlices(pass, fn)
			checkHotBody(pass, fn.body, uncapped)
		}
	}
}

func checkHotBody(pass *Pass, body *ast.BlockStmt, uncapped map[types.Object]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if endsInPanic(pass, n.Body) {
				// A guard that panics is the cold error path; its formatting
				// cost never lands on the steady state.
				return false
			}
		case *ast.CompositeLit:
			if t := pass.TypeOf(n); t != nil {
				switch u := t.Underlying().(type) {
				case *types.Map:
					pass.Reportf(n.Pos(), "map literal allocates on a //vavg:hotpath function")
				case *types.Struct:
					checkBoxingFields(pass, u, n)
				}
			}
		case *ast.CallExpr:
			checkHotCall(pass, n, uncapped)
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					checkBoxingStore(pass, pass.TypeOf(lhs), n.Rhs[i], "")
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i, name := range n.Names {
					if obj := pass.Info.Defs[name]; obj != nil {
						checkBoxingStore(pass, obj.Type(), n.Values[i], "")
					}
				}
			}
		}
		return true
	})
}

// checkBoxingStore flags a concrete, non-nil value stored into a location
// of interface type dst — a variable, or the struct field named field —
// the implicit conversion boxes it.
func checkBoxingStore(pass *Pass, dst types.Type, val ast.Expr, field string) {
	if dst == nil || !types.IsInterface(dst) {
		return
	}
	valT := pass.TypeOf(val)
	if valT == nil || types.IsInterface(valT) || isUntypedNil(valT) {
		return
	}
	if field != "" {
		pass.Reportf(val.Pos(), "composite literal boxes %s into interface field %s on a //vavg:hotpath function", valT.String(), field)
		return
	}
	pass.Reportf(val.Pos(), "assignment boxes %s into an interface variable on a //vavg:hotpath function", valT.String())
}

// checkBoxingFields applies checkBoxingStore to every field a struct
// composite literal sets, keyed (T{f: v}) or positional (T{v}).
func checkBoxingFields(pass *Pass, st *types.Struct, lit *ast.CompositeLit) {
	for i, elt := range lit.Elts {
		f, val := (*types.Var)(nil), elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				f, _ = pass.Info.Uses[id].(*types.Var)
			}
			val = kv.Value
		} else if i < st.NumFields() {
			f = st.Field(i)
		}
		if f != nil {
			checkBoxingStore(pass, f.Type(), val, f.Name())
		}
	}
}

func checkHotCall(pass *Pass, call *ast.CallExpr, uncapped map[types.Object]bool) {
	if isBuiltinCall(pass.Info, call, "make") && len(call.Args) > 0 {
		if t := pass.TypeOf(call.Args[0]); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				pass.Reportf(call.Pos(), "make(map) allocates on a //vavg:hotpath function")
			}
		}
		return
	}
	if isBuiltinCall(pass.Info, call, "append") && len(call.Args) > 0 {
		if base, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && uncapped[pass.Info.Uses[base]] {
			pass.Reportf(call.Pos(), "append to %s, which has no reserved capacity, can allocate on a //vavg:hotpath function; preallocate with make(len, cap)", base.Name)
		}
		return
	}
	// Explicit conversion to an interface type boxes its operand.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		if _, isIface := tv.Type.Underlying().(*types.Interface); isIface && len(call.Args) == 1 {
			if argT := pass.TypeOf(call.Args[0]); argT != nil && !types.IsInterface(argT) {
				pass.Reportf(call.Pos(), "conversion boxes %s into an interface on a //vavg:hotpath function", argT.String())
			}
		}
		return
	}
	if path, _, ok := pkgFunc(pass.Info, call); ok && path == "fmt" {
		pass.Reportf(call.Pos(), "fmt call allocates on a //vavg:hotpath function")
		return
	}
	checkBoxingArgs(pass, call)
}

// checkBoxingArgs flags concrete values passed to interface-typed
// parameters — the implicit conversion allocates for non-pointer values.
func checkBoxingArgs(pass *Pass, call *ast.CallExpr) {
	obj := calleeObj(pass.Info, call)
	fn, ok := obj.(*types.Func)
	if !ok {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		argT := pass.TypeOf(arg)
		if argT == nil || types.IsInterface(argT) || isUntypedNil(argT) {
			continue
		}
		pass.Reportf(arg.Pos(), "argument boxes %s into interface parameter of %s on a //vavg:hotpath function", argT.String(), fn.Name())
	}
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// endsInPanic reports whether the block's final statement is a panic
// call.
func endsInPanic(pass *Pass, block *ast.BlockStmt) bool {
	if len(block.List) == 0 {
		return false
	}
	es, ok := block.List[len(block.List)-1].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	return ok && isBuiltinCall(pass.Info, call, "panic")
}

// uncappedSlices maps slice variables declared in fn without reserved
// capacity: `var s []T`, `s := []T{}`, or two-argument make. Anything
// whose capacity the analyzer cannot see (parameters, fields, slab
// slices, call results) is trusted.
func uncappedSlices(pass *Pass, fn funcInfo) map[types.Object]bool {
	uncapped := map[types.Object]bool{}
	ast.Inspect(fn.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || i >= len(n.Rhs) {
					continue
				}
				obj := pass.Info.Defs[id]
				if obj == nil || !isSliceType(obj.Type()) {
					continue
				}
				if sliceRHSUncapped(pass, n.Rhs[i]) {
					uncapped[obj] = true
				}
			}
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					obj := pass.Info.Defs[name]
					if obj == nil || !isSliceType(obj.Type()) {
						continue
					}
					if len(vs.Values) == 0 || (i < len(vs.Values) && sliceRHSUncapped(pass, vs.Values[i])) {
						uncapped[obj] = true
					}
				}
			}
		}
		return true
	})
	return uncapped
}

func isSliceType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

// sliceRHSUncapped reports whether the initializer provably reserves no
// spare capacity: a composite literal or a two-argument make.
func sliceRHSUncapped(pass *Pass, rhs ast.Expr) bool {
	switch rhs := ast.Unparen(rhs).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		return isBuiltinCall(pass.Info, rhs, "make") && len(rhs.Args) == 2
	}
	return false
}
