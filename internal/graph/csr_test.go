package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	gort "runtime"
	"strings"
	"testing"
)

type namedGraph struct {
	name string
	g    *Graph
}

// csrTestGraphs builds one small instance of every generator family plus
// the degenerate shapes (singleton, edgeless) the loader must handle.
func csrTestGraphs(t testing.TB) []namedGraph {
	t.Helper()
	graphs := []namedGraph{
		{"singleton", FromEdges(1, nil)},
		{"edgeless", FromEdges(5, nil)},
	}
	for _, fam := range Families {
		g, err := MakeFamily(fam, 64, 3, 7)
		if err != nil {
			t.Fatalf("MakeFamily(%s): %v", fam, err)
		}
		graphs = append(graphs, namedGraph{fam, g})
	}
	return graphs
}

// TestCSRRoundTripAllFamilies is the Write(g); Load == g property: every
// family survives a raw and a compressed round trip bit-for-bit,
// including the reconstructed Rev involution, and the written file
// verifies end to end.
func TestCSRRoundTripAllFamilies(t *testing.T) {
	dir := t.TempDir()
	for _, ng := range csrTestGraphs(t) {
		name, g := ng.name, ng.g
		for _, compress := range []bool{false, true} {
			mode := "raw"
			if compress {
				mode = "compressed"
			}
			path := filepath.Join(dir, name+"-"+mode+".csr")
			if err := WriteCSRFile(path, g, compress); err != nil {
				t.Fatalf("%s/%s: write: %v", name, mode, err)
			}
			if err := VerifyCSRFile(path); err != nil {
				t.Fatalf("%s/%s: verify: %v", name, mode, err)
			}
			got, err := LoadCSR(path)
			if err != nil {
				t.Fatalf("%s/%s: load: %v", name, mode, err)
			}
			if got.N() != g.N() || got.M() != g.M() || got.Name != g.Name || got.ArborBound != g.ArborBound {
				t.Fatalf("%s/%s: header fields differ: n=%d/%d m=%d/%d name=%q/%q arbor=%d/%d",
					name, mode, got.N(), g.N(), got.M(), g.M(), got.Name, g.Name, got.ArborBound, g.ArborBound)
			}
			if !int32sEqual(got.Off, g.Off) || !int32sEqual(got.Adj, g.Adj) || !int32sEqual(got.Rev, g.Rev) {
				t.Fatalf("%s/%s: CSR arrays differ after round trip", name, mode)
			}
			if compress && got.MappedBytes() != 0 {
				t.Errorf("%s: compressed load reports %d mapped bytes, want 0 (heap decode)", name, got.MappedBytes())
			}
			info, err := ReadCSRInfo(path)
			if err != nil {
				t.Fatalf("%s/%s: info: %v", name, mode, err)
			}
			if info.N != g.N() || info.M != g.M() || info.Name != g.Name || info.Compressed != compress {
				t.Errorf("%s/%s: info = %+v, want n=%d m=%d name=%q compressed=%v",
					name, mode, info, g.N(), g.M(), g.Name, compress)
			}
		}
	}
}

func int32sEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCSRMappedLoad pins the zero-copy contract on unix hosts: a raw
// file's arrays alias one read-only mapping whose size MappedBytes
// reports, and warm accessor paths allocate nothing.
func TestCSRMappedLoad(t *testing.T) {
	g := ForestUnion(500, 3, 9)
	path := filepath.Join(t.TempDir(), "g.csr")
	if err := WriteCSRFile(path, g, false); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCSR(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.MappedBytes() != 0 && got.MappedBytes() != uint64(st.Size()) {
		t.Errorf("MappedBytes = %d, want 0 (fallback) or the file size %d", got.MappedBytes(), st.Size())
	}
	var sink int32
	allocs := testing.AllocsPerRun(100, func() {
		for u := 0; u < got.N(); u++ {
			for _, v := range got.Neighbors(u) {
				sink += v
			}
		}
	})
	if allocs != 0 {
		t.Errorf("warm neighbor scans allocate %.1f/op, want 0 (mapping happens once at load)", allocs)
	}
	_ = sink
}

// corrupt writes g to a raw in-memory CSR image and hands it to mutate
// before decoding, for negative tests against targeted corruption.
func corruptDecode(t *testing.T, g *Graph, compress bool, mutate func(data []byte)) error {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCSR(&buf, g, compress); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	mutate(data)
	_, _, err := decodeCSR(data)
	return err
}

func TestCSRDecodeRejectsCorruption(t *testing.T) {
	g := ForestUnion(80, 2, 3)
	// The raw layout's section offsets, for targeted field corruption.
	nameLen := len(g.Name)
	offStart := csrHeaderSize + int(pad8(uint64(nameLen)))
	adjStart := offStart + int(pad8(4*uint64(g.N()+1)))

	cases := []struct {
		name     string
		compress bool
		mutate   func(data []byte)
	}{
		{"bad magic", false, func(d []byte) { d[0] = 'X' }},
		{"bad version", false, func(d []byte) { binary.LittleEndian.PutUint32(d[8:12], 99) }},
		{"bad flags", false, func(d []byte) { binary.LittleEndian.PutUint32(d[12:16], 0xff00) }},
		{"reserved set", false, func(d []byte) { d[44] = 1 }},
		{"huge n", false, func(d []byte) { binary.LittleEndian.PutUint64(d[16:24], 1<<40) }},
		{"huge m", false, func(d []byte) { binary.LittleEndian.PutUint64(d[24:32], 1<<40) }},
		{"name overrun", false, func(d []byte) { binary.LittleEndian.PutUint32(d[40:44], 1<<11) }},
		{"off overrun", false, func(d []byte) { binary.LittleEndian.PutUint64(d[56:64], 1<<50) }},
		{"non-monotone Off", false, func(d []byte) {
			binary.LittleEndian.PutUint32(d[offStart+4:], ^uint32(0)>>1) // Off[1] = MaxInt32
		}},
		{"out-of-range Adj", false, func(d []byte) {
			binary.LittleEndian.PutUint32(d[adjStart:], 1<<20)
		}},
		{"self-loop Adj", false, func(d []byte) {
			// Vertex 0's first neighbor becomes 0.
			binary.LittleEndian.PutUint32(d[adjStart:], 0)
		}},
		{"broken Rev", false, func(d []byte) {
			revStart := adjStart + int(pad8(4*uint64(2*g.M())))
			cur := binary.LittleEndian.Uint32(d[revStart:])
			binary.LittleEndian.PutUint32(d[revStart:], cur+1)
		}},
		{"compressed with Rev section", true, func(d []byte) {
			binary.LittleEndian.PutUint64(d[72:80], 8)
		}},
	}
	for _, tc := range cases {
		if err := corruptDecode(t, g, tc.compress, tc.mutate); err == nil {
			t.Errorf("%s: decode succeeded, want error", tc.name)
		}
	}

	// Every truncation of a valid image errors rather than panics or
	// over-reads (coarse stride keeps the test fast; the fuzzer sweeps the
	// rest).
	for _, compress := range []bool{false, true} {
		var buf bytes.Buffer
		if err := WriteCSR(&buf, g, compress); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		for cut := 0; cut < len(data); cut += 37 {
			if _, _, err := decodeCSR(data[:cut]); err == nil {
				t.Fatalf("compress=%v: decode of %d/%d-byte prefix succeeded", compress, cut, len(data))
			}
		}
	}
}

// hostileCompressedImages returns two small compressed images whose
// header counts far exceed their sections: Ring(12)'s image with n
// patched to 2^26, and an 89-byte image of one vertex whose one degree
// uvarint claims 2m = 2^26 neighbors in a 1-byte Adj section. Decoded by
// the header's counts alone, each would allocate 256 MiB before failing.
func hostileCompressedImages(t testing.TB) []namedImage {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCSR(&buf, Ring(12), true); err != nil {
		t.Fatal(err)
	}
	bigN := buf.Bytes()
	binary.LittleEndian.PutUint64(bigN[16:24], 1<<26)

	bigM := make([]byte, csrHeaderSize+8+1)
	copy(bigM, csrMagic)
	binary.LittleEndian.PutUint32(bigM[8:12], csrVersion)
	binary.LittleEndian.PutUint32(bigM[12:16], csrFlagCompressed)
	binary.LittleEndian.PutUint64(bigM[16:24], 1)     // n
	binary.LittleEndian.PutUint64(bigM[24:32], 1<<25) // m
	binary.LittleEndian.PutUint64(bigM[56:64], 4)     // Off: one 4-byte uvarint
	binary.LittleEndian.PutUint64(bigM[64:72], 1)     // Adj: one byte
	binary.PutUvarint(bigM[csrHeaderSize:], 1<<26)
	return []namedImage{{"n=2^26", bigN}, {"2m=2^26", bigM}}
}

type namedImage struct {
	name string
	data []byte
}

// TestCSRDecodeBoundsAllocByFileSize decodes the hostile images: each
// must fail, naming the count the section cannot hold, with under 1 MiB
// allocated.
func TestCSRDecodeBoundsAllocByFileSize(t *testing.T) {
	for _, im := range hostileCompressedImages(t) {
		var before, after gort.MemStats
		gort.ReadMemStats(&before)
		_, _, err := decodeCSR(im.data)
		gort.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "cannot hold") {
			t.Errorf("%s (%d bytes): decode error %v, want a section too small for the header's count", im.name, len(im.data), err)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b >= 1<<20 {
			t.Errorf("%s (%d bytes): decode allocated %d bytes, want under 1 MiB", im.name, len(im.data), b)
		}
	}
}

// TestVerifyCSRFileCatchesBitrot flips one payload byte and expects the
// checksum audit (which LoadCSR deliberately skips) to catch it.
func TestVerifyCSRFileCatchesBitrot(t *testing.T) {
	g := Ring(64)
	path := filepath.Join(t.TempDir(), "ring.csr")
	if err := WriteCSRFile(path, g, false); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-6] ^= 1 // inside the Rev section
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := VerifyCSRFile(path); err == nil {
		t.Error("verify passed on a bit-flipped file")
	}

	// Trailing garbage is also rejected by verify.
	if err := WriteCSRFile(path, g, false); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := VerifyCSRFile(path); err == nil {
		t.Error("verify passed with trailing garbage")
	}
}

func TestCacheKeyCanonical(t *testing.T) {
	if got, want := CacheKey("forests", 4096, "a", 3, "seed", int64(7)), "forests|n=4096|a=3|seed=7"; got != want {
		t.Errorf("CacheKey = %q, want %q", got, want)
	}
	if got, want := CacheKey("ring", 100), "ring|n=100"; got != want {
		t.Errorf("CacheKey = %q, want %q", got, want)
	}
	// Same path, different spellings: one key.
	if FileKey("/tmp/a/../g.csr") != FileKey("/tmp/g.csr") {
		t.Error("FileKey does not canonicalize paths")
	}
	// File keys live outside the family namespace.
	if FileKey("ring") == CacheKey("ring", 100) {
		t.Error("file and family keys collide")
	}
	for _, tc := range []struct {
		name string
		bad  func()
	}{
		{"odd params", func() { CacheKey("x", 1, "a") }},
		{"non-string name", func() { CacheKey("x", 1, 3, 4) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: CacheKey did not panic", tc.name)
				}
			}()
			tc.bad()
		}()
	}
}

func TestMakeFamilyCoversCatalog(t *testing.T) {
	for _, fam := range Families {
		g, err := MakeFamily(fam, 50, 2, 1)
		if err != nil {
			t.Errorf("MakeFamily(%s): %v", fam, err)
			continue
		}
		if g.N() == 0 {
			t.Errorf("MakeFamily(%s): empty graph", fam)
		}
	}
	if _, err := MakeFamily("no-such-family", 10, 1, 1); err == nil {
		t.Error("unknown family accepted")
	}
}

// TestMakeFamilyRejectsBadArgs pins MakeFamily's argument checks: each
// (n, a) its generator would panic on is an error naming the family and
// the bound, never a panic, and the boundary value of each rule builds.
func TestMakeFamilyRejectsBadArgs(t *testing.T) {
	cases := []struct {
		family string
		n, a   int
		want   string // error substring; "" means the graph must build
	}{
		{"forests", -5, 3, "needs n >= 1"},
		{"path", 0, 3, "needs n >= 1"},
		{"forests", 1, 3, ""},
		{"ring", 2, 3, "needs n >= 3"},
		{"ringshuffled", 2, 3, "needs n >= 3"},
		{"ring", 3, 3, ""},
		{"ringshuffled", 3, 3, ""},
		{"forests", 100, 0, "needs a >= 1"},
		{"starforest", 100, 0, "needs a >= 1"},
		{"cliqueforest", 100, 0, "needs a >= 1"},
		{"forests", 100, 1, ""},
		{"starforest", 100, 1, ""},
		{"cliqueforest", 11, 3, "needs 4a <= n"},
		{"cliqueforest", 12, 3, ""},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s/n=%d/a=%d", tc.family, tc.n, tc.a)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked: %v", name, r)
				}
			}()
			g, err := MakeFamily(tc.family, tc.n, tc.a, 1)
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("%s: %v", name, err)
			case tc.want == "" && g.N() != tc.n:
				t.Errorf("%s: built n=%d", name, g.N())
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), tc.family)):
				t.Errorf("%s: got error %v, want one naming %s and %q", name, err, tc.family, tc.want)
			}
		}()
	}
}
