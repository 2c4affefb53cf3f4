package vavg

import (
	"fmt"
	"sort"

	"vavg/internal/arbdefect"
	"vavg/internal/baseline"
	"vavg/internal/coloring"
	"vavg/internal/engine"
	"vavg/internal/extend"
	"vavg/internal/forest"
	"vavg/internal/graph"
	"vavg/internal/hpartition"
	"vavg/internal/randcolor"
	"vavg/internal/segment"
)

var registry = []Algorithm{
	{
		Name:           "partition",
		Description:    "Procedure Partition: H-partition with exponentially decaying active set",
		Paper:          "§6.1",
		Kind:           KindPartition,
		Deterministic:  true,
		VertexAvgBound: "O(1)",
		program: func(p Params) engine.Program {
			return hpartition.Program(p.Arboricity, p.Eps)
		},
		step: func(p Params) engine.StepProgram {
			return hpartition.StepProgram(p.Arboricity, p.Eps)
		},
	},
	{
		Name:           "general-partition",
		Description:    "Partition with unknown arboricity (doubling thresholds)",
		Paper:          "§6.1 / [8]",
		Kind:           KindPartition,
		Deterministic:  true,
		VertexAvgBound: "O(log² a)",
		program: func(p Params) engine.Program {
			return hpartition.GeneralProgram(p.Eps)
		},
		step: func(p Params) engine.StepProgram {
			return hpartition.GeneralStepProgram(p.Eps)
		},
		ignoresArboricity: true,
	},
	{
		Name:           "forest-decomp",
		Description:    "Parallelized-Forest-Decomposition: O(a) forests",
		Paper:          "§7.1",
		Kind:           KindForest,
		Deterministic:  true,
		VertexAvgBound: "O(1)",
		program: func(p Params) engine.Program {
			return forest.Program(p.Arboricity, p.Eps)
		},
		step: func(p Params) engine.StepProgram {
			return forest.StepProgram(p.Arboricity, p.Eps)
		},
	},
	{
		Name:           "forest-decomp-wc",
		Description:    "Classical Forest-Decomposition (worst-case baseline)",
		Paper:          "baseline [8]",
		Kind:           KindForest,
		Deterministic:  true,
		VertexAvgBound: "Θ(log n)",
		program: func(p Params) engine.Program {
			return baseline.ForestDecompositionWC(p.Arboricity, p.Eps)
		},
		step: func(p Params) engine.StepProgram {
			return baseline.ForestDecompositionWCStep(p.Arboricity, p.Eps)
		},
	},
	{
		Name:           "arblinial-o1",
		Description:    "One-step Arb-Linial coloring upon H-set formation",
		Paper:          "§7.2",
		Kind:           KindVertexColoring,
		Deterministic:  true,
		VertexAvgBound: "O(1)",
		ColorBound:     "O(a² log² n)",
		Palette: func(n int, p Params) int {
			return coloring.ArbLinialO1Palette(n, p.Arboricity, p.Eps)
		},
		program: func(p Params) engine.Program {
			return coloring.ArbLinialO1(p.Arboricity, p.Eps)
		},
		step: func(p Params) engine.StepProgram {
			return coloring.ArbLinialO1Step(p.Arboricity, p.Eps)
		},
	},
	{
		Name:           "arblinial-wc",
		Description:    "One-step Arb-Linial after full decomposition (worst-case baseline)",
		Paper:          "baseline [8]",
		Kind:           KindVertexColoring,
		Deterministic:  true,
		VertexAvgBound: "Θ(log n)",
		ColorBound:     "O(a² log² n)",
		Palette: func(n int, p Params) int {
			return coloring.ArbLinialO1Palette(n, p.Arboricity, p.Eps)
		},
		program: func(p Params) engine.Program {
			return baseline.ArbLinialWC(p.Arboricity, p.Eps)
		},
		step: func(p Params) engine.StepProgram {
			return baseline.ArbLinialWCStep(p.Arboricity, p.Eps)
		},
	},
	{
		Name:           "a2-loglog",
		Description:    "Two-phase O(a²)-coloring",
		Paper:          "§7.3",
		Kind:           KindVertexColoring,
		Deterministic:  true,
		VertexAvgBound: "O(log log n)",
		ColorBound:     "O(a²)",
		Palette: func(n int, p Params) int {
			return 2 * coloring.TwoPhaseA2PhasePalette(n, p.Arboricity, p.Eps)
		},
		program: func(p Params) engine.Program {
			return coloring.TwoPhaseA2(p.Arboricity, p.Eps)
		},
		step: func(p Params) engine.StepProgram {
			return coloring.TwoPhaseA2Step(p.Arboricity, p.Eps)
		},
	},
	{
		Name:           "iterated-arblinial-wc",
		Description:    "Full Arb-Linial-Coloring after full decomposition (worst-case baseline)",
		Paper:          "baseline [8]",
		Kind:           KindVertexColoring,
		Deterministic:  true,
		VertexAvgBound: "Θ(log n)",
		ColorBound:     "O(a²)",
		Palette: func(n int, p Params) int {
			return coloring.LinialFinalPalette(n, hpartition.ParamA(p.Arboricity, p.Eps))
		},
		program: func(p Params) engine.Program {
			return baseline.IteratedArbLinialWC(p.Arboricity, p.Eps)
		},
		step: func(p Params) engine.StepProgram {
			return baseline.IteratedArbLinialWCStep(p.Arboricity, p.Eps)
		},
	},
	{
		Name:           "a-loglog",
		Description:    "Two-phase O(a)-coloring",
		Paper:          "§7.4",
		Kind:           KindVertexColoring,
		Deterministic:  true,
		VertexAvgBound: "O(a log log n)",
		ColorBound:     "O(a)",
		Palette: func(n int, p Params) int {
			return coloring.AColorPalette(p.Arboricity, p.Eps)
		},
		program: func(p Params) engine.Program {
			return coloring.AColorLogLog(p.Arboricity, p.Eps)
		},
		step: func(p Params) engine.StepProgram {
			return coloring.AColorLogLogStep(p.Arboricity, p.Eps)
		},
	},
	{
		Name:           "arbcolor-wc",
		Description:    "Procedure Arb-Color: O(a)-coloring (worst-case baseline)",
		Paper:          "baseline [8]",
		Kind:           KindVertexColoring,
		Deterministic:  true,
		VertexAvgBound: "Θ(a log n)",
		ColorBound:     "O(a)",
		Palette: func(n int, p Params) int {
			return hpartition.ParamA(p.Arboricity, p.Eps) + 1
		},
		program: func(p Params) engine.Program {
			return baseline.ArbColorWC(p.Arboricity, p.Eps)
		},
		step: func(p Params) engine.StepProgram {
			return baseline.ArbColorWCStep(p.Arboricity, p.Eps)
		},
	},
	{
		Name:           "ka2",
		Description:    "Segmentation scheme: O(k·a²)-coloring",
		Paper:          "§7.6",
		Kind:           KindVertexColoring,
		Deterministic:  true,
		VertexAvgBound: "O(log^(k) n)",
		ColorBound:     "O(k·a²)",
		Palette: func(n int, p Params) int {
			return segment.KA2Palette(n, p.Arboricity, p.K, p.Eps)
		},
		program: func(p Params) engine.Program {
			return segment.KA2Coloring(p.Arboricity, p.K, p.Eps)
		},
		step: func(p Params) engine.StepProgram {
			return segment.KA2Step(p.Arboricity, p.K, p.Eps)
		},
	},
	{
		Name:           "ka",
		Description:    "Segmentation scheme: O(k·a)-coloring",
		Paper:          "§7.7",
		Kind:           KindVertexColoring,
		Deterministic:  true,
		VertexAvgBound: "O(a log^(k) n)",
		ColorBound:     "O(k·a)",
		Palette: func(n int, p Params) int {
			return segment.KAPalette(n, p.Arboricity, p.K, p.Eps)
		},
		program: func(p Params) engine.Program {
			return segment.KAColoring(p.Arboricity, p.K, p.Eps)
		},
		step: func(p Params) engine.StepProgram {
			return segment.KAStep(p.Arboricity, p.K, p.Eps)
		},
	},
	{
		Name:           "one-plus-eta",
		Description:    "One-Plus-Eta-Arb-Col: O(a^{1+η})-coloring",
		Paper:          "§7.8",
		Kind:           KindVertexColoring,
		Deterministic:  true,
		VertexAvgBound: "O(log a · log log n)",
		ColorBound:     "O(a^{1+η})",
		Palette: func(n int, p Params) int {
			return arbdefect.Palette(n, arbdefect.Params{A: p.Arboricity, Eps: p.Eps, C: p.C})
		},
		program: func(p Params) engine.Program {
			return arbdefect.OnePlusEta(p.Arboricity, p.Eps, p.C)
		},
		step: func(p Params) engine.StepProgram {
			return arbdefect.OnePlusEtaStep(p.Arboricity, p.Eps, p.C)
		},
	},
	{
		Name:           "legal-coloring-wc",
		Description:    "Procedure Legal-Coloring of [5] after a full partition (worst-case baseline for §7.8)",
		Paper:          "baseline [5]",
		Kind:           KindVertexColoring,
		Deterministic:  true,
		VertexAvgBound: "Θ(poly(a) log n)",
		ColorBound:     "O(a^{1+η})",
		Palette: func(n int, p Params) int {
			return arbdefect.LegalColoringWCPalette(n, arbdefect.Params{A: p.Arboricity, Eps: p.Eps, C: p.C})
		},
		program: func(p Params) engine.Program {
			return arbdefect.LegalColoringWC(p.Arboricity, p.Eps, p.C)
		},
		step: func(p Params) engine.StepProgram {
			return arbdefect.LegalColoringWCStep(p.Arboricity, p.Eps, p.C)
		},
	},
	{
		Name:           "deltaplus1-det",
		Description:    "(Δ+1)-coloring via extension framework",
		Paper:          "Cor 8.3",
		Kind:           KindVertexColoring,
		Deterministic:  true,
		VertexAvgBound: "O(a log a + log* n)",
		ColorBound:     "Δ+1",
		program: func(p Params) engine.Program {
			return extend.DeltaPlus1(p.Arboricity, p.Eps)
		},
		step: func(p Params) engine.StepProgram {
			return extend.DeltaPlus1Step(p.Arboricity, p.Eps)
		},
	},
	{
		Name:           "deltaplus1-rand",
		Description:    "Rand-Delta-Plus1: randomized (Δ+1)-coloring",
		Paper:          "§9.2",
		Kind:           KindVertexColoring,
		Deterministic:  false,
		VertexAvgBound: "O(1) w.h.p.",
		ColorBound:     "Δ+1",
		program: func(Params) engine.Program {
			return randcolor.DeltaPlus1()
		},
		step: func(Params) engine.StepProgram {
			return randcolor.DeltaPlus1Step()
		},
		ignoresArboricity: true,
	},
	{
		Name:           "aloglog-rand",
		Description:    "Randomized O(a log log n)-coloring",
		Paper:          "§9.3",
		Kind:           KindVertexColoring,
		Deterministic:  false,
		VertexAvgBound: "O(1) w.h.p.",
		ColorBound:     "O(a log log n)",
		Palette: func(n int, p Params) int {
			return randcolor.ALogLogPalette(n, p.Arboricity, p.Eps)
		},
		program: func(p Params) engine.Program {
			return randcolor.ALogLog(p.Arboricity, p.Eps)
		},
		step: func(p Params) engine.StepProgram {
			return randcolor.ALogLogStep(p.Arboricity, p.Eps)
		},
	},
	{
		Name:           "mis",
		Description:    "MIS via extension framework",
		Paper:          "Cor 8.4",
		Kind:           KindMIS,
		Deterministic:  true,
		VertexAvgBound: "O(a log a + log* n)",
		program: func(p Params) engine.Program {
			return extend.MIS(p.Arboricity, p.Eps)
		},
		step: func(p Params) engine.StepProgram {
			return extend.MISStep(p.Arboricity, p.Eps)
		},
	},
	{
		Name:           "mis-wc",
		Description:    "Deterministic MIS via worst-case coloring (baseline)",
		Paper:          "baseline",
		Kind:           KindMIS,
		Deterministic:  true,
		VertexAvgBound: "Θ(log n + a²)",
		program: func(p Params) engine.Program {
			return baseline.MISByColoringWC(p.Arboricity, p.Eps)
		},
		step: func(p Params) engine.StepProgram {
			return baseline.MISByColoringWCStep(p.Arboricity, p.Eps)
		},
	},
	{
		Name:           "mis-luby",
		Description:    "Luby's randomized MIS (reference)",
		Paper:          "baseline [22]",
		Kind:           KindMIS,
		Deterministic:  false,
		VertexAvgBound: "O(log n) w.h.p.",
		program: func(Params) engine.Program {
			return baseline.LubyMIS()
		},
		step: func(Params) engine.StepProgram {
			return baseline.LubyMISStep()
		},
		ignoresArboricity: true,
	},
	{
		Name:           "edgecolor",
		Description:    "(2Δ-1)-edge-coloring via extension framework",
		Paper:          "Cor 8.6",
		Kind:           KindEdgeColoring,
		Deterministic:  true,
		VertexAvgBound: "O(a + log* n)",
		ColorBound:     "2Δ-1",
		program: func(p Params) engine.Program {
			return extend.EdgeColoring(p.Arboricity, p.Eps)
		},
		step: func(p Params) engine.StepProgram {
			return extend.EdgeColoringStep(p.Arboricity, p.Eps)
		},
	},
	{
		Name:           "matching",
		Description:    "Maximal matching via extension framework",
		Paper:          "Cor 8.8",
		Kind:           KindMatching,
		Deterministic:  true,
		VertexAvgBound: "O(a + log* n)",
		program: func(p Params) engine.Program {
			return extend.MaximalMatching(p.Arboricity, p.Eps)
		},
		step: func(p Params) engine.StepProgram {
			return extend.MaximalMatchingStep(p.Arboricity, p.Eps)
		},
	},
	{
		Name:           "ring-3color",
		Description:    "Cole-Vishkin 3-coloring of a ring (Feuilloley negative example)",
		Paper:          "reference [12]",
		Kind:           KindVertexColoring,
		Deterministic:  true,
		VertexAvgBound: "Θ(log* n)",
		ColorBound:     "3",
		Palette:        func(int, Params) int { return 3 },
		RingOnly:       true,
		program: func(Params) engine.Program {
			return baseline.Ring3Coloring()
		},
		step: func(Params) engine.StepProgram {
			return baseline.Ring3ColoringStep()
		},
		ignoresArboricity: true,
	},
	{
		Name:           "leader-ring",
		Description:    "Ring leader election (Feuilloley positive example)",
		Paper:          "reference [12]",
		Kind:           KindReference,
		Deterministic:  true,
		VertexAvgBound: "O(log n) commitment",
		RingOnly:       true,
		program: func(Params) engine.Program {
			return baseline.LeaderElectionRing()
		},
		step: func(Params) engine.StepProgram {
			return baseline.LeaderElectionRingStep()
		},
		ignoresArboricity: true,
	},
}

// Algorithms returns the registry sorted by name.
func Algorithms() []Algorithm {
	out := append([]Algorithm(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ByName looks up a registry entry.
func ByName(name string) (Algorithm, error) {
	for _, a := range registry {
		if a.Name == name {
			return a, nil
		}
	}
	return Algorithm{}, fmt.Errorf("vavg: unknown algorithm %q", name)
}

// Generator re-exports, so downstream users need only this package.
var (
	Ring             = graph.Ring
	RingShuffled     = graph.RingShuffled
	Path             = graph.Path
	Star             = graph.Star
	StarForest       = graph.StarForest
	CompleteBinTree  = graph.CompleteBinaryTree
	RandomTree       = graph.RandomTree
	Grid             = graph.Grid
	TriangulatedGrid = graph.TriangulatedGrid
	ForestUnion      = graph.ForestUnion
	Gnm              = graph.Gnm
	Clique           = graph.Clique
	CliquePlusForest = graph.CliquePlusForest
	Hypercube        = graph.Hypercube
	Caterpillar      = graph.Caterpillar
	KaryTree         = graph.KaryTree
	Degeneracy       = graph.Degeneracy
)

// Graph-file re-exports: the binary CSR store, so tools and tests can
// materialize, load, and audit on-disk graphs through this package alone.
var (
	// MakeFamily constructs a graph family by its CLI name — the single
	// construction path shared by every tool, so a materialized file is
	// always interchangeable with its generator.
	MakeFamily = graph.MakeFamily
	// GraphFamilies lists the family names MakeFamily accepts.
	GraphFamilies = graph.Families
	// WriteGraphFile writes a graph to the binary CSR format (raw layout
	// mmaps zero-copy; compressed trades load-time decode for ~2-4x
	// smaller files).
	WriteGraphFile = graph.WriteCSRFile
	// LoadGraph loads a CSR graph file; raw-layout files come back as one
	// shared read-only mapping on unix hosts.
	LoadGraph = graph.LoadCSR
	// VerifyGraphFile audits a CSR file end to end: checksum, size
	// accounting, and the full structural contract.
	VerifyGraphFile = graph.VerifyCSRFile
	// ReadGraphInfo reads a CSR file's header without decoding sections.
	ReadGraphInfo = graph.ReadCSRInfo
)
