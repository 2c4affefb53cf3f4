package experiments

import (
	"strings"
	"testing"
)

// TestAllExperimentsQuick smoke-runs every experiment in quick mode and
// checks that each renders a non-empty table. This is the integration test
// guaranteeing that the full `vavgbench -exp all` pipeline stays runnable.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke run is not short")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var sb strings.Builder
			cfg := Config{Quick: true, W: &sb}
			if err := e.Run(cfg); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(strings.TrimSpace(sb.String())) == 0 {
				t.Fatalf("%s rendered nothing", e.ID)
			}
		})
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
