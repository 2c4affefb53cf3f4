package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"vavg/internal/analysis"
)

// TestSuppressionDirectives pins which //lint:ignore directives are
// findings of their own: one naming no analyzer of the suite (a typo, or
// a retired analyzer) would otherwise suppress nothing forever, and one
// without a reason is unauditable. The check runs against the full
// suite, so it fires even when no analyzer is selected.
func TestSuppressionDirectives(t *testing.T) {
	cases := []struct {
		name      string
		directive string
		want      string // expected finding message, "" for none
	}{
		{"unknown analyzer", "//lint:ignore nosuchcheck retired long ago", `lint:ignore directive names unknown analyzer "nosuchcheck"`},
		{"missing reason", "//lint:ignore detorder", "lint:ignore directive needs an analyzer name and a reason"},
		{"valid", "//lint:ignore detorder any element is a valid witness", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := "package p\n\nfunc f() {\n\t" + tc.directive + "\n\t_ = 0\n}\n"
			fset := token.NewFileSet()
			file, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			pkg := &analysis.Package{Fset: fset, Syntax: []*ast.File{file}}
			diags := analysis.RunAnalyzers(nil, []*analysis.Package{pkg})
			if tc.want == "" {
				if len(diags) != 0 {
					t.Fatalf("findings = %v, want none", diags)
				}
				return
			}
			if len(diags) != 1 || diags[0].Analyzer != "vavglint" || diags[0].Message != tc.want || diags[0].Pos.Line != 4 {
				t.Fatalf("findings = %v, want one vavglint finding on line 4: %s", diags, tc.want)
			}
		})
	}
}

// TestByNameListsAll checks that the unknown-analyzer error offers
// exactly the suite's names, in All() order.
func TestByNameListsAll(t *testing.T) {
	var names []string
	for _, a := range analysis.All() {
		if got, err := analysis.ByName(a.Name); err != nil || got != a {
			t.Errorf("ByName(%q) = %v, %v", a.Name, got, err)
		}
		names = append(names, a.Name)
	}
	_, err := analysis.ByName("nosuchcheck")
	want := `analysis: unknown analyzer "nosuchcheck" (available: ` + strings.Join(names, ", ") + ")"
	if err == nil || err.Error() != want {
		t.Fatalf("ByName error = %v, want %q", err, want)
	}
}
