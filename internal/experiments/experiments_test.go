package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick from the current output")

// quickDir holds one golden file per experiment: its quick-mode output.
var quickDir = filepath.Join("testdata", "quick")

// TestAllExperimentsQuick runs every experiment in quick mode and
// compares its rendered tables with testdata/quick/<id>.txt byte for
// byte, so the whole `vavgbench -exp all` pipeline stays runnable and a
// change to any table shows as a failing row. A golden file whose
// experiment no longer exists fails too. Re-pin deliberate changes with
//
//	go test ./internal/experiments -run TestAllExperimentsQuick -update
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke run is not short")
	}
	if *update {
		if err := os.MkdirAll(quickDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var sb strings.Builder
			cfg := Config{Quick: true, W: &sb}
			if err := e.Run(cfg); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			got := sb.String()
			if len(strings.TrimSpace(got)) == 0 {
				t.Fatalf("%s rendered nothing", e.ID)
			}
			path := filepath.Join(quickDir, e.ID+".txt")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (pin it with -update)", err)
			}
			if got != string(want) {
				t.Errorf("output differs from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
	files, err := filepath.Glob(filepath.Join(quickDir, "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		id := strings.TrimSuffix(filepath.Base(f), ".txt")
		if _, err := Find(id); err == nil {
			continue
		}
		if *update {
			if err := os.Remove(f); err != nil {
				t.Fatal(err)
			}
			continue
		}
		t.Errorf("golden file %s names no experiment", f)
	}
}

func TestFind(t *testing.T) {
	if _, err := Find("t2-mis"); err != nil {
		t.Fatal(err)
	}
	if _, err := Find("bogus"); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
	// IDs are unique.
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		if e.Artifact == "" || e.Claim == "" {
			t.Errorf("experiment %q missing metadata", e.ID)
		}
	}
}

// TestExperimentsParallelMatchesSerial renders every experiment with the
// scheduler serial and with eight workers; the outputs must be
// byte-identical. This is the experiments-level half of the determinism
// contract (vavg.Sweep has the registry-level half).
func TestExperimentsParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment equivalence run is not short")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var outs [2]string
			for i, workers := range []int{1, 8} {
				var sb strings.Builder
				if err := e.Run(Config{Quick: true, W: &sb, Workers: workers}); err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				outs[i] = sb.String()
			}
			if outs[0] != outs[1] {
				t.Errorf("parallel output differs from serial:\nserial:\n%s\nparallel:\n%s", outs[0], outs[1])
			}
		})
	}
}
