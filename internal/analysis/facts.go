package analysis

import (
	"go/ast"
	"go/types"
)

// The fact layer is vavglint's interprocedural half, analogous to
// go/analysis facts but computed eagerly over every loaded unit before
// analyzers run. It builds one fact family, the determinism summary
// (FuncSummary): for every declared module function, which results carry
// taint of their own, which parameters flow into which results, and which
// parameters are forwarded to a determinism sink (a message send,
// adversary hashing, a Result field). detflow consults these at call
// sites.
//
// Facts are computed from source alone, ignoring //lint: suppressions: a
// file-ignored function still contributes its real summary, so callers in
// other files are checked against what the function actually does, and
// suppression stays a per-diagnostic decision at the reporting site.

// A FuncSummary is the determinism fact for one declared function.
// Parameter indices count the receiver as 0 when present; at most 64
// parameters are tracked.
type FuncSummary struct {
	params     int
	results    []resultSummary
	sinkParams []string // "" = not forwarded to a sink; else sink description
}

type resultSummary struct {
	kinds      uint8  // taint the result carries regardless of arguments
	fromParams uint64 // parameter bits that flow into this result
}

func summaryEqual(a, b *FuncSummary) bool {
	if a.params != b.params || len(a.results) != len(b.results) {
		return false
	}
	for i := range a.results {
		if a.results[i] != b.results[i] {
			return false
		}
	}
	for i := range a.sinkParams {
		if a.sinkParams[i] != b.sinkParams[i] {
			return false
		}
	}
	return true
}

// Facts is the module-wide interprocedural fact store handed to
// NeedsFacts analyzers through Pass.Facts. Read-only once computed.
type Facts struct {
	// summaries maps funcKey -> determinism summary for every declared
	// module function with a body (non-test files).
	summaries map[string]*FuncSummary
}

// funcKey names a function module-wide: pkgpath.Name for package-level
// functions, pkgpath.Recv.Name for methods (pointer receivers unwrapped).
// String keys survive the source-checked/export-data object split: the
// same function has distinct types.Func objects in different units, but
// one key.
func funcKey(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	key := fn.Pkg().Path() + "."
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named, ok := dePtr(sig.Recv().Type()).(*types.Named); ok {
			key += named.Obj().Name() + "."
		}
	}
	return key + fn.Name()
}

func (f *Facts) summaryOf(fn *types.Func) *FuncSummary {
	if f == nil {
		return nil
	}
	return f.summaries[funcKey(fn)]
}

// funcNode is one declared function scheduled for summarization.
type funcNode struct {
	pkg *Package
	fn  funcInfo
	key string // funcKey of the declaration
}

// ComputeFacts builds the module-wide fact store over every unit: taint
// summaries for declared functions, iterated to a fixed point over the
// call graph. Test files contribute nothing: test-local programs are
// certified dynamically by the equivalence suites.
func ComputeFacts(pkgs []*Package) *Facts {
	f := &Facts{summaries: map[string]*FuncSummary{}}
	var decls []funcNode
	for _, pkg := range pkgs {
		shim := &Pass{Fset: pkg.Fset, Info: pkg.TypesInfo}
		for _, file := range pkg.Syntax {
			if isTestFile(pkg.Fset, file) {
				continue
			}
			for _, fn := range funcsIn(shim, file) {
				decl, ok := fn.node.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if obj, ok := pkg.TypesInfo.Defs[decl.Name].(*types.Func); ok {
					decls = append(decls, funcNode{pkg: pkg, fn: fn, key: funcKey(obj)})
				}
			}
		}
	}
	f.computeSummaries(decls)
	return f
}

// computeSummaries iterates taint summarization over the call graph until
// no summary changes. Summaries only grow (taint bits and sink marks are
// monotone), so the iteration terminates; the bound is a safety net.
func (f *Facts) computeSummaries(decls []funcNode) {
	for _, n := range decls {
		f.summaries[n.key] = newSummary(n.fn.sig)
	}
	for iter := 0; iter < 20; iter++ {
		changed := false
		for _, n := range decls {
			sum := newSummary(n.fn.sig)
			s := &taintScope{
				info:       n.pkg.TypesInfo,
				fset:       n.pkg.Fset,
				facts:      f,
				sig:        n.fn.sig,
				progShaped: sigIsProgramShape(n.fn.sig),
				params:     paramObjs(n.fn.sig),
				vars:       map[types.Object]taintVal{},
				summary:    sum,
			}
			s.run(n.fn.body)
			if !summaryEqual(f.summaries[n.key], sum) {
				f.summaries[n.key] = sum
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

func newSummary(sig *types.Signature) *FuncSummary {
	params := sig.Params().Len()
	if sig.Recv() != nil {
		params++
	}
	if params > 64 {
		params = 64
	}
	return &FuncSummary{
		params:     params,
		results:    make([]resultSummary, sig.Results().Len()),
		sinkParams: make([]string, params),
	}
}

// paramObjs maps parameter objects (receiver first) to summary indices.
func paramObjs(sig *types.Signature) map[types.Object]int {
	m := map[types.Object]int{}
	i := 0
	if r := sig.Recv(); r != nil {
		m[r] = 0
		i = 1
	}
	for j := 0; j < sig.Params().Len(); j++ {
		if i+j < 64 {
			m[sig.Params().At(j)] = i + j
		}
	}
	return m
}
