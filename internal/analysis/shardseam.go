package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Directives of the shard-ownership contract. //vavg:shardstate on a type
// declaration marks per-shard state whose fields are phase-owned;
// //vavg:shardmerge on a function marks a round-barrier merge routine
// that legitimately writes shards it does not own.
const (
	shardStateDirective = "//vavg:shardstate"
	shardMergeDirective = "//vavg:shardmerge"
)

// Shardseam enforces the contention-free sharding contract of the step
// runner (DESIGN.md §9): state marked //vavg:shardstate is owned by
// exactly one worker per phase, so it is written only through the owning
// shard's methods (via the receiver) or through //vavg:shardmerge
// functions running at the round barrier. Three rules keep the round hot
// path lock-free:
//
//   - a //vavg:shardstate struct may not declare sync or sync/atomic
//     fields — phase ownership, not locking, is the synchronization;
//
//   - fields of a shardstate type are written only through the method
//     receiver of one of its own methods, or inside a //vavg:shardmerge
//     function; any other write is a cross-shard (or coordinator) store
//     racing the owner;
//
//   - shardstate methods and shardmerge functions may not call into sync
//     or sync/atomic: a lock appearing inside the shard round path means
//     the phase-ownership argument no longer holds.
var Shardseam = &Analyzer{
	Name: "shardseam",
	Doc:  "confines //vavg:shardstate writes to owner methods and //vavg:shardmerge functions and keeps locks out of the shard round path",
	Run:  runShardseam,
}

func runShardseam(pass *Pass) {
	states := map[*types.TypeName]bool{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				doc := ts.Doc
				if doc == nil {
					doc = gd.Doc
				}
				if !hasDirective(doc, shardStateDirective) {
					continue
				}
				obj, _ := pass.Info.Defs[ts.Name].(*types.TypeName)
				if obj == nil {
					continue
				}
				states[obj] = true
				checkShardFields(pass, ts)
			}
		}
	}
	if len(states) == 0 {
		return
	}
	for _, file := range pass.Files {
		for _, fn := range funcsIn(pass, file) {
			checkShardFunc(pass, states, fn)
		}
	}
}

// checkShardFields flags lock and atomic fields declared inside a
// shardstate struct.
func checkShardFields(pass *Pass, ts *ast.TypeSpec) {
	st, ok := ts.Type.(*ast.StructType)
	if !ok {
		return
	}
	for _, field := range st.Fields.List {
		t := pass.TypeOf(field.Type)
		if typeFromSyncPkg(t) {
			pass.Reportf(field.Pos(), "lock or atomic field in //vavg:shardstate struct %s; shard state is phase-owned, not locked", ts.Name.Name)
		}
	}
}

// checkShardFunc applies the write and call rules to one function.
func checkShardFunc(pass *Pass, states map[*types.TypeName]bool, fn funcInfo) {
	merge := false
	if decl, ok := fn.node.(*ast.FuncDecl); ok && hasDirective(decl.Doc, shardMergeDirective) {
		merge = true
	}
	var recv *types.Var
	if r := fn.sig.Recv(); r != nil && isShardState(states, r.Type()) {
		recv = r
	}
	inShardPath := merge || recv != nil
	walkSkippingFuncLits(fn.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkShardWrite(pass, states, merge, recv, lhs)
			}
		case *ast.IncDecStmt:
			checkShardWrite(pass, states, merge, recv, n.X)
		case *ast.CallExpr:
			if !inShardPath {
				return true
			}
			if f, ok := calleeObj(pass.Info, n).(*types.Func); ok && f.Pkg() != nil {
				switch f.Pkg().Path() {
				case "sync", "sync/atomic":
					pass.Reportf(n.Pos(), "%s.%s call in the shard round path; shard state is synchronized by phase ownership, not locks", f.Pkg().Path(), f.Name())
				}
			}
		}
		return true
	})
}

// checkShardWrite flags a store whose target is a field of a shardstate
// type, unless the enclosing function is a shardmerge routine or the
// store goes through the receiver of one of the type's own methods.
func checkShardWrite(pass *Pass, states map[*types.TypeName]bool, merge bool, recv *types.Var, lhs ast.Expr) {
	sel := shardStateSel(pass, states, lhs)
	if sel == nil || merge {
		return
	}
	if recv != nil {
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && pass.Info.Uses[id] == recv {
			return
		}
	}
	owner := "its owning shard's methods"
	if recv != nil {
		owner = "the method receiver"
	}
	pass.Reportf(sel.Pos(), "write to shard state field %s outside %s; cross-shard stores go through a //vavg:shardmerge routine at the round barrier", sel.Sel.Name, owner)
}

// shardStateSel unwraps index, deref, and selector layers of a store
// target and returns the innermost selector whose base is a shardstate
// value, or nil.
func shardStateSel(pass *Pass, states map[*types.TypeName]bool, e ast.Expr) *ast.SelectorExpr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if isShardState(states, pass.TypeOf(x.X)) {
				return x
			}
			e = x.X
		default:
			return nil
		}
	}
}

// isShardState reports whether t (under one pointer) is a named type
// annotated //vavg:shardstate in this package.
func isShardState(states map[*types.TypeName]bool, t types.Type) bool {
	if t == nil {
		return false
	}
	n, ok := dePtr(t).(*types.Named)
	return ok && states[n.Obj()]
}

// typeFromSyncPkg reports whether t (under one pointer) is declared in
// sync or sync/atomic.
func typeFromSyncPkg(t types.Type) bool {
	if t == nil {
		return false
	}
	n, ok := dePtr(t).(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	switch n.Obj().Pkg().Path() {
	case "sync", "sync/atomic":
		return true
	}
	return false
}
