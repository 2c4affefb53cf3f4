package vavg

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"vavg/internal/engine"
)

// TestFileGraphSweepEquivalence is the out-of-core correctness contract:
// a sweep over a file:-sourced graph — raw (mmap'd zero-copy on unix) or
// compressed — produces byte-identical results to the same generated
// graph at every sweep worker count, and both execution forms produce
// byte-identical engine Results on the loaded graph. The on-disk store is
// a transport, never a semantic input.
func TestFileGraphSweepEquivalence(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		family   string
		n, a     int
		seed     int64
		compress bool
		alg      string
	}{
		{"forests", 600, 3, 7, false, "partition"},
		{"forests", 600, 3, 7, true, "partition"},
		{"ring", 300, 1, 1, false, "ring-3color"},
	}
	for _, tc := range cases {
		g, err := MakeFamily(tc.family, tc.n, tc.a, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		mode := "raw"
		if tc.compress {
			mode = "compressed"
		}
		path := filepath.Join(dir, tc.family+"-"+mode+".csr")
		if err := WriteGraphFile(path, g, tc.compress); err != nil {
			t.Fatal(err)
		}
		alg, err := ByName(tc.alg)
		if err != nil {
			t.Fatal(err)
		}
		fromRAM := func(n int) *Graph { return g }
		fromFile := FileGen(path)
		for _, workers := range []int{1, 3} {
			p := Params{Arboricity: tc.a, SweepWorkers: workers}
			want, err := Sweep(alg, fromRAM, []int{g.N()}, nil, p)
			if err != nil {
				t.Fatalf("%s/%s workers=%d: ram sweep: %v", tc.family, mode, workers, err)
			}
			got, err := Sweep(alg, fromFile, []int{g.N()}, nil, p)
			if err != nil {
				t.Fatalf("%s/%s workers=%d: file sweep: %v", tc.family, mode, workers, err)
			}
			var wantJSON, gotJSON bytes.Buffer
			if err := want.WriteJSON(&wantJSON); err != nil {
				t.Fatal(err)
			}
			if err := got.WriteJSON(&gotJSON); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wantJSON.Bytes(), gotJSON.Bytes()) {
				t.Errorf("%s/%s workers=%d: file-backed sweep diverged:\nram:  %s\nfile: %s",
					tc.family, mode, workers, wantJSON.String(), gotJSON.String())
			}
		}

		// Single runs must match down to the full Report, including the
		// per-round active-vertex decay.
		loaded := fromFile(g.N())
		p := Params{Arboricity: tc.a}
		wantRep, err := alg.Run(g, p)
		if err != nil {
			t.Fatal(err)
		}
		gotRep, err := alg.Run(loaded, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantRep, gotRep) {
			t.Errorf("%s/%s: file-backed Report differs:\nram:  %+v\nfile: %+v",
				tc.family, mode, wantRep, gotRep)
		}

		// The public API runs only the step form, so both forms run on the
		// loaded graph through the engine itself.
		p = p.withDefaults(g)
		opts := engine.Options{Seed: p.Seed, MaxRounds: p.MaxRounds}
		for _, f := range alg.forms(p) {
			want, err := engine.RunSpec(g, f.spec, opts)
			if err != nil {
				t.Fatalf("%s/%s %s form: ram run: %v", tc.family, mode, f.name, err)
			}
			got, err := engine.RunSpec(loaded, f.spec, opts)
			if err != nil {
				t.Fatalf("%s/%s %s form: file run: %v", tc.family, mode, f.name, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s/%s %s form: file-backed Result differs (roundSum %d vs %d, messages %d vs %d)",
					tc.family, mode, f.name, want.RoundSum, got.RoundSum, want.Messages, got.Messages)
			}
		}
	}
	GraphCachePurge()
}

// TestFileGenContract pins FileGen's sharing and size-check behavior.
func TestFileGenContract(t *testing.T) {
	GraphCachePurge()
	g := Ring(50)
	path := filepath.Join(t.TempDir(), "ring.csr")
	if err := WriteGraphFile(path, g, false); err != nil {
		t.Fatal(err)
	}
	gen := FileGen(path)
	if gen(50) != gen(0) {
		t.Error("same path returned distinct graphs")
	}
	// A second spelling of the same path shares the entry.
	if FileGen(filepath.Join(filepath.Dir(path), ".", "ring.csr"))(50) != gen(50) {
		t.Error("equivalent path spellings did not share a cache entry")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("size mismatch did not panic")
			}
		}()
		gen(51)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("missing file did not panic")
			}
		}()
		FileGen(filepath.Join(t.TempDir(), "absent.csr"))(0)
	}()
	GraphCachePurge()
}
