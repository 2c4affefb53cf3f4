package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"slices"
	"unsafe"

	"vavg/internal/wire"
)

// This file defines the on-disk binary CSR format ("vavg CSR store") and
// its loader. The format exists so graphs stop being per-process heap
// allocations: a raw-layout file memory-maps read-only straight into the
// Off/Adj/Rev slices of Graph, so repeated sweeps, all algorithms, and
// parallel workers share one kernel page-cache copy at zero marginal
// memory, and graph sizes are bounded by disk instead of RAM.
//
// Layout (all fixed-width fields little-endian):
//
//	header (80 bytes):
//	  [0:8)   magic "VAVGCSR1"
//	  [8:12)  format version (uint32, currently 1)
//	  [12:16) flags (uint32; bit 0 = delta-varint-compressed sections)
//	  [16:24) n, number of vertices (uint64)
//	  [24:32) m, number of undirected edges (uint64)
//	  [32:40) certified arboricity bound (uint64, 0 = none)
//	  [40:44) name length in bytes (uint32)
//	  [44:48) reserved, must be zero
//	  [48:56) FNV-1a/64 checksum of name + section payloads, in file order
//	  [56:64) Off section payload size in bytes (uint64)
//	  [64:72) Adj section payload size in bytes (uint64)
//	  [72:80) Rev section payload size in bytes (uint64)
//	name bytes, zero-padded to the next multiple of 8
//	Off section, zero-padded to the next multiple of 8
//	Adj section, zero-padded to the next multiple of 8
//	Rev section, zero-padded to the next multiple of 8
//
// Raw layout (flags bit 0 clear): Off is n+1 int32s, Adj and Rev are 2m
// int32s each, exactly the in-memory CSR arrays. The 8-byte section
// alignment lets the loader alias the mapping as []int32 without copying.
//
// Compressed layout (flags bit 0 set): Off stores the n vertex degrees as
// uvarints, Adj stores each vertex's sorted adjacency as a
// wire.AppendDeltaInt32Run, and Rev is empty — the loader rebuilds it in
// one O(m) cursor pass. Compressed files decode into the heap (no
// zero-copy mapping) and exist for archival and transport, at roughly one
// byte per edge endpoint on the sparse families.
const (
	csrMagic      = "VAVGCSR1"
	csrVersion    = 1
	csrHeaderSize = 80
	// csrFlagCompressed marks delta-varint-compressed Off/Adj sections.
	csrFlagCompressed = 1 << 0
	// csrMaxName bounds the stored graph name; longer names indicate a
	// corrupt header long before the allocator gets hurt.
	csrMaxName = 1 << 12
)

// csrHeader is the decoded fixed-size file header.
type csrHeader struct {
	version  uint32
	flags    uint32
	n        uint64
	m        uint64
	arbor    uint64
	nameLen  uint32
	checksum uint64
	offBytes uint64
	adjBytes uint64
	revBytes uint64
}

// pad8 rounds up to the next multiple of 8.
func pad8(x uint64) uint64 { return (x + 7) &^ 7 }

// hostLittleEndian reports whether the running machine stores integers
// little-endian, in which case raw sections can be aliased in place; on
// big-endian hosts the loader falls back to an explicit byte-order
// converting copy.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// int32sFrom returns b's payload as []int32, aliasing b without a copy
// when the host is little-endian and the section is 4-byte aligned
// (mappings are page-aligned and section starts 8-aligned in the file, so
// the mmap path always aliases); otherwise it decodes a heap copy. The
// bool reports whether the result aliases b.
func int32sFrom(b []byte) ([]int32, bool) {
	if len(b) == 0 {
		return nil, true
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4), true
	}
	return decodeInt32sLE(b), false
}

// WriteCSRFile writes g to path in the binary CSR format, compressed or
// raw. Raw files memory-map at load; compressed files are the compact
// archival form.
func WriteCSRFile(path string, g *Graph, compress bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := WriteCSR(w, g, compress); err != nil {
		f.Close()
		return fmt.Errorf("graph: writing %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteCSR streams g to w in the binary CSR format. The sections are
// checksummed into the header, so the encoder makes one hashing pass over
// the payload before the write pass; both passes stream through a small
// scratch buffer rather than materializing the encoded sections (except
// under compress, where the variable-length sections must be encoded
// up front to know their header sizes).
func WriteCSR(w io.Writer, g *Graph, compress bool) error {
	n, m := g.N(), g.M()
	if len(g.Off) != n+1 || len(g.Adj) != 2*m || len(g.Rev) != 2*m {
		return fmt.Errorf("graph: inconsistent CSR arrays (n=%d m=%d |Off|=%d |Adj|=%d |Rev|=%d)",
			n, m, len(g.Off), len(g.Adj), len(g.Rev))
	}
	name := g.Name
	if len(name) > csrMaxName {
		name = name[:csrMaxName]
	}
	h := csrHeader{
		version: csrVersion,
		n:       uint64(n),
		m:       uint64(m),
		arbor:   uint64(g.ArborBound),
		nameLen: uint32(len(name)),
	}

	var offEnc, adjEnc []byte // compressed section payloads
	if compress {
		h.flags = csrFlagCompressed
		offEnc = make([]byte, 0, n+1)
		for u := 0; u < n; u++ {
			offEnc = wire.AppendUvarint(offEnc, uint64(g.Degree(u)))
		}
		adjEnc = make([]byte, 0, len(g.Adj))
		for u := 0; u < n; u++ {
			adjEnc = wire.AppendDeltaInt32Run(adjEnc, g.Neighbors(u))
		}
		h.offBytes = uint64(len(offEnc))
		h.adjBytes = uint64(len(adjEnc))
		h.revBytes = 0
	} else {
		h.offBytes = 4 * uint64(n+1)
		h.adjBytes = 4 * uint64(2*m)
		h.revBytes = 4 * uint64(2*m)
	}

	// Pass 1: checksum name + section payloads in file order.
	sum := fnv.New64a()
	sum.Write([]byte(name))
	if compress {
		sum.Write(offEnc)
		sum.Write(adjEnc)
	} else {
		writeInt32sLE(sum, g.Off)
		writeInt32sLE(sum, g.Adj)
		writeInt32sLE(sum, g.Rev)
	}
	h.checksum = sum.Sum64()

	// Pass 2: header, then the payloads with their alignment padding.
	var hdr [csrHeaderSize]byte
	copy(hdr[0:8], csrMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], h.version)
	binary.LittleEndian.PutUint32(hdr[12:16], h.flags)
	binary.LittleEndian.PutUint64(hdr[16:24], h.n)
	binary.LittleEndian.PutUint64(hdr[24:32], h.m)
	binary.LittleEndian.PutUint64(hdr[32:40], h.arbor)
	binary.LittleEndian.PutUint32(hdr[40:44], h.nameLen)
	binary.LittleEndian.PutUint64(hdr[48:56], h.checksum)
	binary.LittleEndian.PutUint64(hdr[56:64], h.offBytes)
	binary.LittleEndian.PutUint64(hdr[64:72], h.adjBytes)
	binary.LittleEndian.PutUint64(hdr[72:80], h.revBytes)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if err := writePadded(w, []byte(name)); err != nil {
		return err
	}
	if compress {
		if err := writePadded(w, offEnc); err != nil {
			return err
		}
		return writePadded(w, adjEnc)
	}
	for _, sec := range [][]int32{g.Off, g.Adj, g.Rev} {
		if err := writeInt32sLE(w, sec); err != nil {
			return err
		}
		if err := writePad(w, 4*uint64(len(sec))); err != nil {
			return err
		}
	}
	return nil
}

var zeroPad [8]byte

// writePadded writes b followed by the zero bytes that align the next
// section to 8 bytes.
func writePadded(w io.Writer, b []byte) error {
	if _, err := w.Write(b); err != nil {
		return err
	}
	return writePad(w, uint64(len(b)))
}

func writePad(w io.Writer, written uint64) error {
	if rem := pad8(written) - written; rem > 0 {
		if _, err := w.Write(zeroPad[:rem]); err != nil {
			return err
		}
	}
	return nil
}

// writeInt32sLE streams xs as little-endian int32s through a scratch
// buffer, so multi-gigabyte sections never materialize a second copy.
func writeInt32sLE(w io.Writer, xs []int32) error {
	const chunk = 16 * 1024
	var scratch [4 * chunk]byte
	for len(xs) > 0 {
		c := len(xs)
		if c > chunk {
			c = chunk
		}
		for i, x := range xs[:c] {
			binary.LittleEndian.PutUint32(scratch[4*i:], uint32(x))
		}
		if _, err := w.Write(scratch[:4*c]); err != nil {
			return err
		}
		xs = xs[c:]
	}
	return nil
}

// parseCSRHeader decodes and bounds-checks the fixed header. It validates
// everything derivable from the header alone: magic, version, flags, the
// name bound, and that n and 2m fit the int32 CSR index space.
func parseCSRHeader(data []byte) (csrHeader, error) {
	var h csrHeader
	if len(data) < csrHeaderSize {
		return h, fmt.Errorf("graph: CSR file truncated: %d bytes, want at least the %d-byte header", len(data), csrHeaderSize)
	}
	if string(data[0:8]) != csrMagic {
		return h, fmt.Errorf("graph: not a CSR graph file (magic %q)", data[0:8])
	}
	h.version = binary.LittleEndian.Uint32(data[8:12])
	if h.version != csrVersion {
		return h, fmt.Errorf("graph: CSR format version %d not supported (want %d)", h.version, csrVersion)
	}
	h.flags = binary.LittleEndian.Uint32(data[12:16])
	if h.flags&^uint32(csrFlagCompressed) != 0 {
		return h, fmt.Errorf("graph: unknown CSR flags %#x", h.flags)
	}
	h.n = binary.LittleEndian.Uint64(data[16:24])
	h.m = binary.LittleEndian.Uint64(data[24:32])
	h.arbor = binary.LittleEndian.Uint64(data[32:40])
	h.nameLen = binary.LittleEndian.Uint32(data[40:44])
	if rsvd := binary.LittleEndian.Uint32(data[44:48]); rsvd != 0 {
		return h, fmt.Errorf("graph: reserved CSR header field is %#x, want 0", rsvd)
	}
	h.checksum = binary.LittleEndian.Uint64(data[48:56])
	h.offBytes = binary.LittleEndian.Uint64(data[56:64])
	h.adjBytes = binary.LittleEndian.Uint64(data[64:72])
	h.revBytes = binary.LittleEndian.Uint64(data[72:80])
	if h.n > math.MaxInt32-1 {
		return h, fmt.Errorf("graph: CSR file declares n=%d, beyond the int32 index space", h.n)
	}
	if h.m > (math.MaxInt32-1)/2 {
		return h, fmt.Errorf("graph: CSR file declares m=%d, beyond the int32 index space", h.m)
	}
	if h.arbor > math.MaxInt32 {
		return h, fmt.Errorf("graph: CSR file declares arboricity bound %d, beyond int32", h.arbor)
	}
	if h.nameLen > csrMaxName {
		return h, fmt.Errorf("graph: CSR name length %d exceeds the %d-byte bound", h.nameLen, csrMaxName)
	}
	return h, nil
}

// csrSections locates the name and the three section payloads inside
// data, checking every offset against the file length with overflow-safe
// arithmetic before slicing.
func csrSections(data []byte, h csrHeader) (name, off, adj, rev []byte, err error) {
	size := uint64(len(data))
	pos := uint64(csrHeaderSize)
	take := func(payload uint64, what string) ([]byte, error) {
		if payload > size || pos > size-payload {
			return nil, fmt.Errorf("graph: CSR %s section (%d bytes at offset %d) overruns the %d-byte file", what, payload, pos, size)
		}
		sec := data[pos : pos+payload]
		adv := pad8(payload)
		if adv > size-pos {
			// The final section's padding may be the end of the file; only
			// the payload itself must be present.
			adv = size - pos
		}
		pos += adv
		return sec, nil
	}
	if name, err = take(uint64(h.nameLen), "name"); err != nil {
		return nil, nil, nil, nil, err
	}
	if off, err = take(h.offBytes, "Off"); err != nil {
		return nil, nil, nil, nil, err
	}
	if adj, err = take(h.adjBytes, "Adj"); err != nil {
		return nil, nil, nil, nil, err
	}
	if rev, err = take(h.revBytes, "Rev"); err != nil {
		return nil, nil, nil, nil, err
	}
	return name, off, adj, rev, nil
}

// decodeCSR parses a CSR file image into a Graph. The returned bool
// reports whether the graph's slices alias data (raw layout on a
// little-endian host); callers that mapped data decide from it whether to
// keep the mapping alive or release it. decodeCSR validates the full
// structural contract of Graph — monotone Off, sorted loop-free in-range
// adjacency, involutive Rev — and returns errors, never panics, on
// arbitrary input.
func decodeCSR(data []byte) (*Graph, bool, error) {
	h, err := parseCSRHeader(data)
	if err != nil {
		return nil, false, err
	}
	nameSec, offSec, adjSec, revSec, err := csrSections(data, h)
	if err != nil {
		return nil, false, err
	}
	n, m := int(h.n), int(h.m)
	g := &Graph{n: n, Name: string(nameSec), ArborBound: int(h.arbor)}
	aliased := false

	if h.flags&csrFlagCompressed != 0 {
		if h.revBytes != 0 {
			return nil, false, fmt.Errorf("graph: compressed CSR file carries a %d-byte Rev section, want none", h.revBytes)
		}
		if err := decodeCompressedSections(g, offSec, adjSec, n, m); err != nil {
			return nil, false, err
		}
	} else {
		if want := 4 * uint64(n+1); h.offBytes != want {
			return nil, false, fmt.Errorf("graph: raw Off section is %d bytes, want %d for n=%d", h.offBytes, want, n)
		}
		if want := 4 * uint64(2*m); h.adjBytes != want || h.revBytes != want {
			return nil, false, fmt.Errorf("graph: raw Adj/Rev sections are %d/%d bytes, want %d for m=%d", h.adjBytes, h.revBytes, want, m)
		}
		var okOff, okAdj, okRev bool
		g.Off, okOff = int32sFrom(offSec)
		g.Adj, okAdj = int32sFrom(adjSec)
		g.Rev, okRev = int32sFrom(revSec)
		aliased = okOff && okAdj && okRev
	}
	if err := validateCSRGraph(g); err != nil {
		return nil, false, err
	}
	return g, aliased, nil
}

// decodeCompressedSections rebuilds Off from the degree uvarints, Adj
// from the per-vertex delta runs, and Rev from scratch.
func decodeCompressedSections(g *Graph, offSec, adjSec []byte, n, m int) error {
	// Every degree and every adjacency value is a uvarint of at least one
	// byte, so counts beyond the sections' sizes mark a corrupt header.
	// Checking them first bounds the allocations below by the file's size
	// instead of by the header's counts.
	if n > len(offSec) {
		return fmt.Errorf("graph: compressed Off section of %d bytes cannot hold n=%d degrees", len(offSec), n)
	}
	if 2*m > len(adjSec) {
		return fmt.Errorf("graph: compressed Adj section of %d bytes cannot hold 2m=%d neighbors", len(adjSec), 2*m)
	}
	g.Off = make([]int32, n+1)
	pos := 0
	total := int64(0)
	for u := 0; u < n; u++ {
		d, c := wire.Uvarint(offSec[pos:])
		if c <= 0 {
			return fmt.Errorf("graph: degree stream truncated at vertex %d", u)
		}
		pos += c
		total += int64(d)
		if total > int64(2*m) {
			return fmt.Errorf("graph: degree stream sums past 2m=%d at vertex %d", 2*m, u)
		}
		g.Off[u+1] = int32(total)
	}
	if pos != len(offSec) {
		return fmt.Errorf("graph: %d trailing bytes after the degree stream", len(offSec)-pos)
	}
	if total != int64(2*m) {
		return fmt.Errorf("graph: degrees sum to %d, want 2m=%d", total, 2*m)
	}
	g.Adj = make([]int32, 2*m)
	pos = 0
	for u := 0; u < n; u++ {
		run := g.Adj[g.Off[u]:g.Off[u+1]]
		c, err := wire.DecodeDeltaInt32Run(adjSec[pos:], run, int32(n))
		if err != nil {
			return fmt.Errorf("graph: adjacency of vertex %d: %w", u, err)
		}
		pos += c
	}
	if pos != len(adjSec) {
		return fmt.Errorf("graph: %d trailing bytes after the adjacency runs", len(adjSec)-pos)
	}
	return g.pairRev()
}

// pairRev allocates and fills g.Rev from an ascending Off/Adj. It
// replays the builder's fill order: scanning vertices in ascending order
// and, within each, neighbors in ascending order visits the undirected
// edges in exactly the (u,v)-sorted order Build pairs them in, so the
// result is byte-identical to a generated graph's Rev. It fails if the
// adjacency is not symmetric.
func (g *Graph) pairRev() error {
	n := g.N()
	g.Rev = make([]int32, len(g.Adj))
	cursor := slices.Clone(g.Off[:n])
	for u := 0; u < n; u++ {
		for p := g.Off[u]; p < g.Off[u+1]; p++ {
			v := g.Adj[p]
			if v <= int32(u) {
				continue
			}
			q := cursor[v]
			if q >= g.Off[v+1] {
				// More vertices list v as a neighbor than v has adjacency
				// slots for: the adjacency is not symmetric.
				return fmt.Errorf("graph: asymmetric adjacency: edge {%d,%d} has no slot in vertex %d's list", u, v, v)
			}
			g.Rev[p] = q
			g.Rev[q] = p
			cursor[v]++
		}
	}
	return nil
}

func decodeInt32sLE(b []byte) []int32 {
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// validateCSRGraph checks the full structural contract the engine and the
// algorithms rely on: Off is a monotone prefix-degree array ending at 2m,
// adjacency lists are strictly ascending, loop-free and in range, and Rev
// is the edge-reversal involution. O(n+m); runs on every load so that a
// corrupt or adversarial file surfaces as an error at the load boundary
// instead of an index panic mid-run.
func validateCSRGraph(g *Graph) error {
	n := g.n
	twoM := int32(len(g.Adj))
	if len(g.Off) != n+1 || g.Off[0] != 0 || g.Off[n] != twoM || len(g.Rev) != int(twoM) {
		return fmt.Errorf("graph: CSR shape invalid (n=%d |Off|=%d Off[0]=%d Off[n]=%d |Adj|=%d |Rev|=%d)",
			n, len(g.Off), g.Off[0], g.Off[n], len(g.Adj), len(g.Rev))
	}
	for u := 0; u < n; u++ {
		lo, hi := g.Off[u], g.Off[u+1]
		if lo > hi {
			return fmt.Errorf("graph: Off not monotone at vertex %d (%d > %d)", u, lo, hi)
		}
		prev := int32(-1)
		for p := lo; p < hi; p++ {
			v := g.Adj[p]
			if v < 0 || int(v) >= n {
				return fmt.Errorf("graph: neighbor %d of vertex %d out of range [0,%d)", v, u, n)
			}
			if v == int32(u) {
				return fmt.Errorf("graph: self-loop at vertex %d", u)
			}
			if v <= prev {
				return fmt.Errorf("graph: adjacency of vertex %d not strictly ascending at position %d", u, p)
			}
			prev = v
			q := g.Rev[p]
			if q < 0 || q >= twoM {
				return fmt.Errorf("graph: Rev[%d] = %d out of range [0,%d)", p, q, twoM)
			}
			if q < g.Off[v] || q >= g.Off[v+1] {
				return fmt.Errorf("graph: Rev[%d] = %d outside vertex %d's adjacency range", p, q, v)
			}
			if g.Adj[q] != int32(u) || g.Rev[q] != p {
				return fmt.Errorf("graph: Rev involution broken at position %d (edge {%d,%d})", p, u, v)
			}
		}
	}
	return nil
}

// LoadCSR loads the CSR graph stored at path. Raw-layout files are
// memory-mapped read-only — the returned graph's Off/Adj/Rev alias one
// shared kernel mapping, MappedBytes reports its size, and concurrent
// runs and processes share the page cache — while compressed files decode
// into the heap. Either way the file is fully structurally validated once
// at load; nothing is parsed or allocated per round afterwards. The
// mapping lives until the process exits (loaded graphs are cached and
// shared, so there is no safe unmap point); it is read-only, so a stray
// write through the graph's slices faults instead of corrupting the file.
//
// LoadCSR does not verify the header checksum — that would force a full
// readahead of a lazily-mapped file; VerifyCSRFile performs the
// end-to-end audit.
func LoadCSR(path string) (*Graph, error) {
	data, mapped, err := mapFile(path)
	if err != nil {
		return nil, fmt.Errorf("graph: loading %s: %w", path, err)
	}
	g, aliased, err := decodeCSR(data)
	if err != nil {
		unmapFile(mapped)
		return nil, fmt.Errorf("graph: loading %s: %w", path, err)
	}
	if aliased && mapped != nil {
		g.mapped = mapped
	} else {
		// The decode copied everything to the heap (compressed layout or a
		// big-endian host); the mapping has served its purpose.
		unmapFile(mapped)
	}
	return g, nil
}

// CSRInfo summarizes a CSR file's header for inspection tooling.
type CSRInfo struct {
	Version    uint32
	Compressed bool
	N          int
	M          int
	ArborBound int
	Name       string
	OffBytes   uint64
	AdjBytes   uint64
	RevBytes   uint64
	FileBytes  int64
	Checksum   uint64
}

// ReadCSRInfo reads just the header and name of the CSR file at path.
func ReadCSRInfo(path string) (CSRInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return CSRInfo{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return CSRInfo{}, err
	}
	buf := make([]byte, csrHeaderSize+csrMaxName)
	k, err := io.ReadFull(f, buf)
	if err == io.ErrUnexpectedEOF || err == io.EOF {
		buf = buf[:k]
	} else if err != nil {
		return CSRInfo{}, err
	}
	h, err := parseCSRHeader(buf)
	if err != nil {
		return CSRInfo{}, err
	}
	if uint64(len(buf)) < csrHeaderSize+uint64(h.nameLen) {
		return CSRInfo{}, fmt.Errorf("graph: CSR file truncated inside the name")
	}
	return CSRInfo{
		Version:    h.version,
		Compressed: h.flags&csrFlagCompressed != 0,
		N:          int(h.n),
		M:          int(h.m),
		ArborBound: int(h.arbor),
		Name:       string(buf[csrHeaderSize : csrHeaderSize+h.nameLen]),
		OffBytes:   h.offBytes,
		AdjBytes:   h.adjBytes,
		RevBytes:   h.revBytes,
		FileBytes:  st.Size(),
		Checksum:   h.checksum,
	}, nil
}

// VerifyCSRFile audits the CSR file at path end to end: header sanity,
// the FNV-1a checksum over name and section payloads, and the full
// structural validation pass of the decoder (monotone Off, sorted
// in-range adjacency, involutive Rev). It reads the whole file.
func VerifyCSRFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	h, err := parseCSRHeader(data)
	if err != nil {
		return err
	}
	name, off, adj, rev, err := csrSections(data, h)
	if err != nil {
		return err
	}
	sum := fnv.New64a()
	sum.Write(name)
	sum.Write(off)
	sum.Write(adj)
	sum.Write(rev)
	if got := sum.Sum64(); got != h.checksum {
		return fmt.Errorf("graph: checksum mismatch: file sections hash to %#x, header says %#x", got, h.checksum)
	}
	// Trailing garbage is invisible to the sections and the checksum;
	// reject it explicitly (the final section's padding may be omitted).
	expect := uint64(csrHeaderSize) + pad8(uint64(h.nameLen)) + pad8(h.offBytes) + pad8(h.adjBytes) + pad8(h.revBytes)
	lastPad := pad8(h.revBytes) - h.revBytes
	if h.revBytes == 0 {
		lastPad = pad8(h.adjBytes) - h.adjBytes
	}
	if got := uint64(len(data)); got != expect && got != expect-lastPad {
		return fmt.Errorf("graph: CSR file is %d bytes, want %d from its header", got, expect)
	}
	if _, _, err := decodeCSR(data); err != nil {
		return err
	}
	return nil
}
