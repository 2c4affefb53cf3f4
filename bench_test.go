package vavg

// Benchmarks: one per evaluation artifact of the paper (see the
// per-experiment index in DESIGN.md). Each benchmark runs the algorithm
// on a fixed bounded-arboricity graph and reports, besides ns/op, the two
// measures the paper contrasts as custom metrics: vertex-averaged rounds
// ("vavg-rounds") and worst-case rounds ("worst-rounds"), plus palette
// sizes where applicable. Baselines appear as sub-benchmarks so the
// separation is visible directly in `go test -bench=.` output.

import (
	"testing"

	"vavg/internal/coloring"
)

const (
	benchN    = 4096
	benchArb  = 3
	benchSeed = 17
)

func benchGraph() *Graph { return ForestUnion(benchN, benchArb, benchSeed) }

func benchAlg(b *testing.B, g *Graph, name string, p Params) {
	b.Helper()
	alg, err := ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	if p.Arboricity == 0 {
		p.Arboricity = benchArb
	}
	var rep Report
	for i := 0; i < b.N; i++ {
		p.Seed = int64(i + 1)
		rep, err = alg.Run(g, p)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.VertexAvg, "vavg-rounds")
	b.ReportMetric(float64(rep.WorstCase), "worst-rounds")
	if rep.Colors >= 0 {
		b.ReportMetric(float64(rep.Colors), "colors")
	}
}

// BenchmarkPartition regenerates E0 (Lemma 6.1 / Theorem 6.3).
func BenchmarkPartition(b *testing.B) {
	g := benchGraph()
	b.Run("ours", func(b *testing.B) { benchAlg(b, g, "partition", Params{}) })
}

// BenchmarkForestDecomposition regenerates E1 (Section 7.1, Theorem 7.1).
func BenchmarkForestDecomposition(b *testing.B) {
	g := benchGraph()
	b.Run("ours", func(b *testing.B) { benchAlg(b, g, "forest-decomp", Params{}) })
	b.Run("baseline", func(b *testing.B) { benchAlg(b, g, "forest-decomp-wc", Params{}) })
}

// BenchmarkArbLinialO1 regenerates E2 (Table 1 row O(a^2 log n) / O(1)).
func BenchmarkArbLinialO1(b *testing.B) {
	g := benchGraph()
	b.Run("ours", func(b *testing.B) { benchAlg(b, g, "arblinial-o1", Params{}) })
	b.Run("baseline", func(b *testing.B) { benchAlg(b, g, "arblinial-wc", Params{}) })
}

// BenchmarkColoringKA2 regenerates E3 (Table 1 rows O(a^2)/O(loglog n) and
// O(k a^2)/O(log^(k) n)).
func BenchmarkColoringKA2(b *testing.B) {
	g := benchGraph()
	b.Run("a2-loglog", func(b *testing.B) { benchAlg(b, g, "a2-loglog", Params{}) })
	b.Run("ka2-k2", func(b *testing.B) { benchAlg(b, g, "ka2", Params{K: 2}) })
	b.Run("ka2-k3", func(b *testing.B) { benchAlg(b, g, "ka2", Params{K: 3}) })
	b.Run("baseline", func(b *testing.B) { benchAlg(b, g, "iterated-arblinial-wc", Params{}) })
}

// BenchmarkColoringA2LogStar regenerates E4 (Table 1 row O(a^2 log* n) /
// O(log* n), the k = rho(n) instance).
func BenchmarkColoringA2LogStar(b *testing.B) {
	g := benchGraph()
	benchAlg(b, g, "ka2", Params{K: coloring.Rho(benchN)})
}

// BenchmarkColoringKA regenerates E5 (Table 1 rows O(a)/O(a loglog n) and
// O(ka)/O(a log^(k) n)).
func BenchmarkColoringKA(b *testing.B) {
	g := benchGraph()
	b.Run("a-loglog", func(b *testing.B) { benchAlg(b, g, "a-loglog", Params{}) })
	b.Run("ka-k2", func(b *testing.B) { benchAlg(b, g, "ka", Params{K: 2}) })
	b.Run("baseline", func(b *testing.B) { benchAlg(b, g, "arbcolor-wc", Params{}) })
}

// BenchmarkColoringALogStar regenerates E6 (Table 1 row O(a log* n) /
// O(a log* n), the k = rho(n) instance).
func BenchmarkColoringALogStar(b *testing.B) {
	g := benchGraph()
	benchAlg(b, g, "ka", Params{K: coloring.Rho(benchN)})
}

// BenchmarkOnePlusEta regenerates E7 (Table 1 row O(a^{1+eta}) /
// O(log a loglog n)).
func BenchmarkOnePlusEta(b *testing.B) {
	g := benchGraph()
	benchAlg(b, g, "one-plus-eta", Params{})
}

// BenchmarkDeltaPlus1Det regenerates E8 (Table 1 row Delta+1 (Det.)): the
// star-forest sub-benchmark grows Delta at constant arboricity, showing
// the a-not-Delta dependence.
func BenchmarkDeltaPlus1Det(b *testing.B) {
	b.Run("forests", func(b *testing.B) { benchAlg(b, benchGraph(), "deltaplus1-det", Params{}) })
	b.Run("stars-delta64", func(b *testing.B) {
		benchAlg(b, StarForest(benchN, 64), "deltaplus1-det", Params{Arboricity: 2})
	})
}

// BenchmarkDeltaPlus1Rand regenerates E9 (Table 1 row Delta+1 (Rand.) O(1)).
func BenchmarkDeltaPlus1Rand(b *testing.B) {
	benchAlg(b, benchGraph(), "deltaplus1-rand", Params{})
}

// BenchmarkRandALogLog regenerates E10 (Table 1 row O(a loglog n) (Rand.)
// O(1)).
func BenchmarkRandALogLog(b *testing.B) {
	benchAlg(b, benchGraph(), "aloglog-rand", Params{})
}

// BenchmarkMIS regenerates E11 (Table 2 row MIS).
func BenchmarkMIS(b *testing.B) {
	g := benchGraph()
	b.Run("ours", func(b *testing.B) { benchAlg(b, g, "mis", Params{}) })
	b.Run("baseline-det", func(b *testing.B) { benchAlg(b, g, "mis-wc", Params{}) })
	b.Run("baseline-luby", func(b *testing.B) { benchAlg(b, g, "mis-luby", Params{}) })
}

// BenchmarkEdgeColoring regenerates E12 (Table 2 row (2Delta-1)-edge-
// coloring).
func BenchmarkEdgeColoring(b *testing.B) {
	benchAlg(b, benchGraph(), "edgecolor", Params{})
}

// BenchmarkMaximalMatching regenerates E13 (Table 2 row MM).
func BenchmarkMaximalMatching(b *testing.B) {
	benchAlg(b, benchGraph(), "matching", Params{})
}

// BenchmarkSegmentation regenerates E14 (Figure 1): the full rho(n)-segment
// scheme end to end.
func BenchmarkSegmentation(b *testing.B) {
	g := benchGraph()
	b.Run("ka2-rho", func(b *testing.B) { benchAlg(b, g, "ka2", Params{K: coloring.Rho(benchN)}) })
}

// BenchmarkRingReference regenerates E15 (the Feuilloley reference points
// the paper departs from).
func BenchmarkRingReference(b *testing.B) {
	b.Run("3color", func(b *testing.B) { benchAlg(b, Ring(benchN), "ring-3color", Params{Arboricity: 2}) })
	// Leader election relays until the completion wave has circled the
	// ring, so a run costs Theta(n^2) vertex-rounds; keep the ring small.
	b.Run("leader", func(b *testing.B) {
		benchAlg(b, Ring(512), "leader-ring", Params{Arboricity: 2, MaxRounds: 64 * 512})
	})
}

// BenchmarkEngine measures the raw simulator: message rounds per second on
// a flood pattern, for capacity planning of larger sweeps.
func BenchmarkEngine(b *testing.B) {
	g := benchGraph()
	alg, _ := ByName("partition")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := alg.Run(g, Params{Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benchmarks for the design choices DESIGN.md calls out.

// BenchmarkAblationEps sweeps the Procedure Partition slack: a tighter
// threshold (smaller eps) trades palette size for slower decay.
func BenchmarkAblationEps(b *testing.B) {
	g := benchGraph()
	for _, eps := range []float64{0.25, 1, 2} {
		b.Run(fmtEps(eps), func(b *testing.B) {
			benchAlg(b, g, "arblinial-o1", Params{Eps: eps})
		})
	}
}

func fmtEps(eps float64) string {
	switch eps {
	case 0.25:
		return "eps-0.25"
	case 1:
		return "eps-1"
	default:
		return "eps-2"
	}
}

// BenchmarkAblationK sweeps the segment count of the Section 7.5 scheme:
// more segments cut the vertex-averaged rounds at the price of more
// palette blocks.
func BenchmarkAblationK(b *testing.B) {
	g := benchGraph()
	for k := 2; k <= coloring.Rho(benchN); k++ {
		k := k
		b.Run("ka2-k"+string(rune('0'+k)), func(b *testing.B) {
			benchAlg(b, g, "ka2", Params{K: k})
		})
	}
}

// BenchmarkAblationC sweeps the Section 7.8 recursion constant: larger C
// means fewer recursion levels but a larger leaf palette.
func BenchmarkAblationC(b *testing.B) {
	g := benchGraph()
	for _, c := range []int{3, 4, 6} {
		c := c
		b.Run("C"+string(rune('0'+c)), func(b *testing.B) {
			benchAlg(b, g, "one-plus-eta", Params{C: c})
		})
	}
}
