package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// Wiretag enforces the fast-lane encoding discipline of internal/wire:
// the top byte of an int64 fast-lane payload is the message-family tag,
// and tags must be globally unique so any receiver (most prominently the
// hpartition Tracker, the universal stray-message sink) can classify a
// message. Hand-rolled tags defeat that uniqueness, so:
//
//   - every wire.Pack call must name its tag through a constant declared
//     in the wire package (wire.TagJoin, wire.TagColor, ...) — a literal
//     or locally-declared tag silently collides with present or future
//     families;
//   - arguments to SendInt/SendIDInt/BroadcastInt must not hand-pack tag
//     bits: constants with the top byte set (>= 1<<56 or negative) and
//     shift expressions moving bits into the tag byte (<< 48 or more)
//     are flagged. Raw untagged payloads below 2^56 stay legal — Luby
//     priorities use the full lane width by design.
//
// Lane mixing on one edge (Send and SendInt interleaved to a receiver
// that only drains one lane) is a dynamic property the cross-form
// equivalence suite covers; this analyzer checks the encoding statically.
var Wiretag = &Analyzer{
	Name:     "wiretag",
	Doc:      "fast-lane sends must tag through wire.Pack with wire.Tag* constants",
	Run:      runWiretag,
	SkipPkgs: []string{wirePath},
}

// tagBitsFloor is the smallest value whose encoding touches the tag byte.
const tagBitsFloor = int64(1) << 56

// fastLaneValueArg maps the *engine.API fast-lane senders to the index of
// their payload argument.
var fastLaneValueArg = map[string]int{
	"SendInt":      1,
	"SendIDInt":    1,
	"BroadcastInt": 0,
}

func runWiretag(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if path, name, ok := pkgFunc(pass.Info, call); ok && path == wirePath && name == "Pack" {
				checkPackTag(pass, call)
				return true
			}
			name, ok := apiMethod(pass.Info, call)
			if !ok {
				return true
			}
			argIdx, isFastLane := fastLaneValueArg[name]
			if !isFastLane || len(call.Args) <= argIdx {
				return true
			}
			checkFastLaneValue(pass, name, call.Args[argIdx])
			return true
		})
	}
}

// checkPackTag requires wire.Pack's tag operand to be a constant declared
// in the wire package.
func checkPackTag(pass *Pass, call *ast.CallExpr) {
	if len(call.Args) < 1 {
		return
	}
	tag := ast.Unparen(call.Args[0])
	var id *ast.Ident
	switch t := tag.(type) {
	case *ast.Ident:
		id = t
	case *ast.SelectorExpr:
		id = t.Sel
	}
	if id != nil {
		if obj, ok := pass.Info.Uses[id].(*types.Const); ok && obj.Pkg() != nil && obj.Pkg().Path() == wirePath {
			return
		}
	}
	pass.Reportf(tag.Pos(), "wire.Pack tag must be a wire.Tag* constant, not %s; ad-hoc tags collide with other message families", exprString(pass.Fset, tag))
}

// checkFastLaneValue flags hand-packed tag bits in a fast-lane payload.
func checkFastLaneValue(pass *Pass, method string, arg ast.Expr) {
	arg = ast.Unparen(arg)
	// A wire.Pack (or any other call) result is trusted; Pack validates.
	if _, isCall := arg.(*ast.CallExpr); isCall {
		return
	}
	if tv, ok := pass.Info.Types[arg]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
		if v, exact := constant.Int64Val(tv.Value); exact && (v < 0 || v >= tagBitsFloor) {
			pass.Reportf(arg.Pos(), "%s payload %s has tag bits set; use wire.Pack with a wire.Tag* constant", method, exprString(pass.Fset, arg))
			return
		}
	}
	if shift := tagShift(pass, arg); shift != nil {
		pass.Reportf(shift.Pos(), "%s payload hand-packs the tag byte (shift into bits >= 48); use wire.Pack with a wire.Tag* constant", method)
	}
}

// tagShift finds a subexpression shifting bits into the tag byte.
func tagShift(pass *Pass, e ast.Expr) ast.Expr {
	var found ast.Expr
	ast.Inspect(e, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || be.Op != token.SHL || found != nil {
			return found == nil
		}
		if tv, ok := pass.Info.Types[be.Y]; ok && tv.Value != nil {
			if v, exact := constant.Int64Val(constant.ToInt(tv.Value)); exact && v >= 48 {
				found = be
			}
		}
		return found == nil
	})
	return found
}
