package graph

import (
	"bytes"
	"testing"
)

// FuzzCSRDecode throws arbitrary bytes at the CSR decoder. The contract
// under fuzz: decodeCSR never panics and never over-reads (the race/asan
// harness would catch it), and anything it accepts re-validates as a
// structurally sound graph — corrupt files must fail at load, not later
// inside a lock-free engine round.
func FuzzCSRDecode(f *testing.F) {
	seed := func(g *Graph, compress bool) {
		var buf bytes.Buffer
		if err := WriteCSR(&buf, g, compress); err != nil {
			f.Fatal(err)
		}
		data := buf.Bytes()
		f.Add(data)
		// Truncations and single-byte mutations of valid images steer the
		// fuzzer toward the interesting parse paths much faster than raw
		// random bytes.
		f.Add(data[:len(data)/2])
		f.Add(data[:csrHeaderSize-1])
		for _, i := range []int{0, 9, 13, 17, 25, 41, 49, csrHeaderSize + 1} {
			if i < len(data) {
				mut := bytes.Clone(data)
				mut[i] ^= 0x40
				f.Add(mut)
			}
		}
	}
	seed(Ring(12), false)
	seed(Ring(12), true)
	seed(ForestUnion(40, 2, 5), false)
	seed(ForestUnion(40, 2, 5), true)
	seed(FromEdges(1, nil), false)
	seed(Star(9), true)
	for _, im := range hostileCompressedImages(f) {
		f.Add(im.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		g, _, err := decodeCSR(data)
		if err != nil {
			return
		}
		// Accepted graphs must satisfy the full structural contract — the
		// decoder already ran validateCSRGraph, so a failure here means the
		// two disagree about what "valid" means.
		if err := validateCSRGraph(g); err != nil {
			t.Fatalf("decode accepted a graph that fails validation: %v", err)
		}
		// And they must re-encode and decode to the same arrays.
		var buf bytes.Buffer
		if err := WriteCSR(&buf, g, false); err != nil {
			t.Fatalf("re-encode of accepted graph failed: %v", err)
		}
		g2, _, err := decodeCSR(buf.Bytes())
		if err != nil {
			t.Fatalf("re-decode of accepted graph failed: %v", err)
		}
		if !int32sEqual(g.Off, g2.Off) || !int32sEqual(g.Adj, g2.Adj) || !int32sEqual(g.Rev, g2.Rev) {
			t.Fatal("accepted graph does not round-trip")
		}
	})
}
