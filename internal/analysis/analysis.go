// Package analysis is vavglint's static-analysis core: a small, offline
// re-implementation of the golang.org/x/tools/go/analysis vocabulary
// (Analyzer, Pass, Diagnostic) plus the package loader and the directive
// conventions the suite understands. The module has no third-party
// dependencies, so the framework is built on go/ast, go/types, and the
// export data the go command already produces (see load.go).
//
// The suite exists because every result in this reproduction rests on
// invariants the compiler cannot see: equal seeds must produce
// byte-identical Results from the blocking and step execution forms,
// which requires that no algorithm's behavior depends on map-iteration
// order, global PRNG state, or wall-clock time, that step-form programs
// never block, and that the message hot path stays allocation-free. The
// analyzers move those contracts from the dynamic equivalence suite to
// compile time.
//
// Three comment directives are recognized:
//
//   - //lint:ignore <analyzer> <reason> — placed on the flagged line or on
//     the line directly above it, suppresses that analyzer's diagnostics
//     for the statement. //lint:file-ignore <analyzer> <reason> at the top
//     of a file suppresses the analyzer for the whole file. A reason is
//     mandatory and the name must be "*" or an analyzer of the suite;
//     directives breaking either rule are reported as findings themselves.
//
//   - //vavg:hotpath in a function's doc comment opts the function into
//     the hotpath analyzer's allocation checks.
//
//   - //vavg:stepform in a function's doc comment opts the function into
//     the stepcontract analyzer's no-blocking checks.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// An Analyzer describes one vavglint check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:ignore
	// directives.
	Name string
	// Doc is a one-paragraph description of the contract enforced.
	Doc string
	// Run inspects one package and reports findings through the Pass.
	Run func(*Pass)
	// SkipPkgs lists import paths the analyzer never inspects (typically
	// the package that implements the contract being enforced).
	SkipPkgs []string
	// NeedsFacts marks an interprocedural analyzer: before any unit runs,
	// RunAnalyzers computes module-wide function summaries (facts.go) over
	// every loaded unit and exposes them through Pass.Facts.
	NeedsFacts bool
}

// A Pass connects an Analyzer to one type-checked package unit.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Facts is the module-wide interprocedural fact store, non-nil only
	// when the analyzer set includes one with NeedsFacts. It is shared and
	// read-only during analyzer application.
	Facts *Facts

	suppr *suppressions
	diags *[]Diagnostic
}

// A Diagnostic is one finding, addressed by source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Suppressed marks a finding covered by a //lint:ignore or
	// //lint:file-ignore directive. Suppressed findings never gate (text
	// output, exit status, and the clean-tree tests all filter them) but
	// are retained so machine consumers (-json) can audit suppression
	// state.
	Suppressed bool
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding at pos; if a //lint:ignore directive for this
// analyzer covers the position the finding is recorded as suppressed.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Pos:        position,
		Analyzer:   p.Analyzer.Name,
		Message:    fmt.Sprintf(format, args...),
		Suppressed: p.suppr.covers(p.Analyzer.Name, position),
	})
}

// TypeOf is shorthand for Pass.Info.TypeOf.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// suppressions indexes //lint:ignore and //lint:file-ignore directives of
// one package unit by file and line.
type suppressions struct {
	fset *token.FileSet
	// byLine maps filename -> line -> analyzer names suppressed on that
	// line (a "*" entry suppresses every analyzer).
	byLine map[string]map[int][]string
	// byFile maps filename -> analyzer names suppressed file-wide.
	byFile map[string][]string
	// malformed holds directives missing a reason or naming no analyzer of
	// the suite; RunAnalyzers reports them as findings so suppressions stay
	// auditable and a stale directive cannot silently suppress nothing.
	malformed []Diagnostic
}

const (
	ignoreDirective     = "//lint:ignore"
	fileIgnoreDirective = "//lint:file-ignore"
)

func newSuppressions(fset *token.FileSet, files []*ast.File) *suppressions {
	s := &suppressions{
		fset:   fset,
		byLine: map[string]map[int][]string{},
		byFile: map[string][]string{},
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				s.add(c)
			}
		}
	}
	return s
}

func (s *suppressions) add(c *ast.Comment) {
	text := strings.TrimSpace(c.Text)
	var fileWide bool
	switch {
	case strings.HasPrefix(text, fileIgnoreDirective):
		fileWide = true
		text = strings.TrimPrefix(text, fileIgnoreDirective)
	case strings.HasPrefix(text, ignoreDirective):
		text = strings.TrimPrefix(text, ignoreDirective)
	default:
		return
	}
	pos := s.fset.Position(c.Pos())
	fields := strings.Fields(text)
	if len(fields) < 2 {
		s.malformed = append(s.malformed, Diagnostic{
			Pos:      pos,
			Analyzer: "vavglint",
			Message:  "lint:ignore directive needs an analyzer name and a reason",
		})
		return
	}
	name := fields[0]
	if _, err := ByName(name); err != nil && name != "*" {
		// Checked against the full suite, whichever subset is being run.
		s.malformed = append(s.malformed, Diagnostic{
			Pos:      pos,
			Analyzer: "vavglint",
			Message:  fmt.Sprintf("lint:ignore directive names unknown analyzer %q", name),
		})
		return
	}
	if fileWide {
		s.byFile[pos.Filename] = append(s.byFile[pos.Filename], name)
		return
	}
	lines := s.byLine[pos.Filename]
	if lines == nil {
		lines = map[int][]string{}
		s.byLine[pos.Filename] = lines
	}
	// A directive covers its own line (trailing comment) and the line
	// below it (leading comment on the preceding line).
	lines[pos.Line] = append(lines[pos.Line], name)
	lines[pos.Line+1] = append(lines[pos.Line+1], name)
}

func (s *suppressions) covers(analyzer string, pos token.Position) bool {
	for _, name := range s.byFile[pos.Filename] {
		if name == analyzer || name == "*" {
			return true
		}
	}
	for _, name := range s.byLine[pos.Filename][pos.Line] {
		if name == analyzer || name == "*" {
			return true
		}
	}
	return false
}

// RunAnalyzers applies every analyzer to every package unit and returns
// the findings (suppressed ones included, marked) sorted by position.
// Units are analyzed concurrently on GOMAXPROCS workers; see
// RunAnalyzersN.
func RunAnalyzers(analyzers []*Analyzer, pkgs []*Package) []Diagnostic {
	return RunAnalyzersN(analyzers, pkgs, 0)
}

// RunAnalyzersN is RunAnalyzers on a bounded worker pool: units are
// analyzed concurrently by up to workers goroutines (0 means GOMAXPROCS),
// each into its own slot, and the merged findings are sorted into
// (file, line, column, analyzer) order — byte-identical output for every
// worker count. If any analyzer declares NeedsFacts, the module-wide fact
// store is computed first, serially, over every unit. Malformed
// suppression directives are themselves reported once per unit.
func RunAnalyzersN(analyzers []*Analyzer, pkgs []*Package, workers int) []Diagnostic {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var facts *Facts
	for _, a := range analyzers {
		if a.NeedsFacts {
			facts = ComputeFacts(pkgs)
			break
		}
	}
	perUnit := make([][]Diagnostic, len(pkgs))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, pkg := range pkgs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, pkg *Package) {
			defer wg.Done()
			defer func() { <-sem }()
			var diags []Diagnostic
			suppr := newSuppressions(pkg.Fset, pkg.Syntax)
			diags = append(diags, suppr.malformed...)
			for _, a := range analyzers {
				if skipPkg(a, pkg.Types.Path()) {
					continue
				}
				pass := &Pass{
					Analyzer: a,
					Fset:     pkg.Fset,
					Files:    pkg.Syntax,
					Pkg:      pkg.Types,
					Info:     pkg.TypesInfo,
					Facts:    facts,
					suppr:    suppr,
					diags:    &diags,
				}
				a.Run(pass)
			}
			perUnit[i] = diags
		}(i, pkg)
	}
	wg.Wait()
	var diags []Diagnostic
	for _, d := range perUnit {
		diags = append(diags, d...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	// Nested constructs (a map range inside a map range) can surface the
	// same finding twice; keep one.
	deduped := diags[:0]
	for i, d := range diags {
		if i > 0 && d == diags[i-1] {
			continue
		}
		deduped = append(deduped, d)
	}
	return deduped
}

// Active filters out suppressed findings: the gating subset of a
// RunAnalyzers result.
func Active(diags []Diagnostic) []Diagnostic {
	out := make([]Diagnostic, 0, len(diags))
	for _, d := range diags {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

func skipPkg(a *Analyzer, path string) bool {
	for _, skip := range a.SkipPkgs {
		if path == skip {
			return true
		}
	}
	return false
}

// hasDirective reports whether the comment group contains the given
// //-directive (e.g. "//vavg:hotpath"), alone or followed by text.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(c.Text)
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}
