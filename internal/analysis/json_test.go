package analysis_test

import (
	"bytes"
	"flag"
	"go/token"
	"os"
	"path/filepath"
	"testing"

	"vavg/internal/analysis"
	"vavg/internal/analysis/antest"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// TestWriteJSON pins the machine-readable format byte-for-byte on
// synthetic diagnostics: one object per line, fixed key order, paths
// relative to the base directory with forward slashes, suppression state
// included.
func TestWriteJSON(t *testing.T) {
	diags := []analysis.Diagnostic{
		{
			Pos:      token.Position{Filename: "/mod/internal/a/a.go", Line: 10, Column: 3},
			Analyzer: "detflow",
			Message:  `tainted value reaches "sink"`,
		},
		{
			Pos:        token.Position{Filename: "/mod/internal/b/b.go", Line: 7, Column: 1},
			Analyzer:   "detorder",
			Message:    "range over map has order-dependent effects",
			Suppressed: true,
		},
	}
	var buf bytes.Buffer
	if err := analysis.WriteJSON(&buf, diags, "/mod"); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	want := `{"analyzer":"detflow","file":"internal/a/a.go","line":10,"col":3,"message":"tainted value reaches \"sink\"","suppressed":false}
{"analyzer":"detorder","file":"internal/b/b.go","line":7,"col":1,"message":"range over map has order-dependent effects","suppressed":true}
`
	if got := buf.String(); got != want {
		t.Errorf("WriteJSON output:\n%s\nwant:\n%s", got, want)
	}
}

// TestJSONGoldenDetflowFixture runs detflow over its fixture package and
// compares the full -json stream (active and suppressed findings alike)
// with a checked-in golden file. Regenerate with -update after deliberate
// fixture or message changes.
func TestJSONGoldenDetflowFixture(t *testing.T) {
	root, err := antest.ModuleRoot()
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	l := antest.Loader(t)
	dir := filepath.Join(root, "internal", "analysis", "testdata", "detflow")
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("fixture files: %v", err)
	}
	pkg, err := l.CheckFiles("vavg/internal/analysis/testdata/detflow", files)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags := analysis.RunAnalyzers([]*analysis.Analyzer{analysis.Detflow}, []*analysis.Package{pkg})
	var buf bytes.Buffer
	if err := analysis.WriteJSON(&buf, diags, root); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	golden := filepath.Join(dir, "golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("writing golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("-json output differs from golden:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}
