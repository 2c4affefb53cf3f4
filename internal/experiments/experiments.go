// Package experiments regenerates every evaluation artifact of the paper:
// each row of Table 1 (vertex coloring) and Table 2 (MIS, edge coloring,
// maximal matching), Figure 1 (the segmentation plan), the Lemma 6.1
// active-vertex decay, and the Feuilloley ring reference points the paper
// builds on. Each experiment sweeps graph sizes (and arboricity where the
// bound depends on it), measures the vertex-averaged and worst-case round
// complexity plus palette sizes, and prints the series next to the
// theoretical bounds so the claimed shapes can be checked directly.
//
// The catalog also carries the deterministic fault-degradation matrix
// (faults.go). Every experiment renders round counts, never wall-clock
// times, so its output is byte-identical at any worker count; wall-clock
// cost is measured by the separate bench/ module.
//
// The experiment IDs match the per-experiment index in DESIGN.md; the
// cmd/vavgbench tool drives this package.
package experiments

import (
	"fmt"
	"io"
	"math"

	"vavg"
	"vavg/internal/baseline"
	"vavg/internal/coloring"
	"vavg/internal/engine"
	"vavg/internal/metrics"
	"vavg/internal/parallel"
	"vavg/internal/segment"
)

// Config controls an experiment run. Workers is its only execution
// setting, and it never changes the rendered output.
type Config struct {
	// Sizes are the graph sizes swept, each at least 1; nil selects
	// defaults (reduced under Quick).
	Sizes []int
	// Seeds are the run seeds; the tables report medians across them.
	Seeds []int64
	// Quick shrinks the sweep for smoke runs and unit tests.
	Quick bool
	// Workers bounds the sweep scheduler's concurrency: every experiment
	// fans its independent (algorithm, graph, seed) run points across this
	// many goroutines. 0 means runtime.GOMAXPROCS. Worker count never
	// changes rendered output — results are collected by point index, and
	// each point derives its PRNG streams from its own seed.
	Workers int
	// W receives the rendered tables.
	W io.Writer
}

func (c Config) withDefaults() Config {
	if c.W == nil {
		c.W = io.Discard
	}
	if len(c.Sizes) == 0 {
		if c.Quick {
			c.Sizes = []int{256, 1024}
		} else {
			c.Sizes = []int{1024, 4096, 16384}
		}
	}
	if len(c.Seeds) == 0 {
		if c.Quick {
			c.Seeds = []int64{1}
		} else {
			c.Seeds = []int64{1, 2, 3}
		}
	}
	return c
}

// Experiment is one reproducible evaluation artifact.
type Experiment struct {
	// ID is the experiment key (DESIGN.md per-experiment index).
	ID string
	// Artifact names the paper artifact reproduced.
	Artifact string
	// Claim summarizes what shape the run should exhibit.
	Claim string
	// Run executes the experiment and renders its table.
	Run func(cfg Config) error
}

// All returns the experiment catalog in presentation order.
func All() []Experiment {
	return []Experiment{
		{"partition-decay", "Lemma 6.1 / Thm 6.3", "active set halves per round; vertex-avg O(1) vs worst-case Θ(log n)", runPartitionDecay},
		{"forest-decomp", "§7.1 Thm 7.1", "O(a)-forest decomposition at O(1) vertex-avg vs Θ(log n) baseline", runForestDecomp},
		{"t1-a2logn", "Table 1 row O(a²logn)/O(1)", "flat vertex-avg; baseline grows with log n", runA2LogN},
		{"t1-ka2", "Table 1 row O(ka²)/O(log^(k)n)", "loglog-shaped vertex-avg (k=2), shrinking with k", runKA2},
		{"t1-a2logstar", "Table 1 row O(a²log*n)/O(log*n)", "log*-shaped vertex-avg at k=ρ(n)", runA2LogStar},
		{"t1-ka", "Table 1 row O(ka)/O(a·log^(k)n)", "O(a) colors; a-dependent loglog vertex-avg", runKA},
		{"t1-alogstar", "Table 1 row O(alog*n)/O(alog*n)", "O(a log* n) colors and vertex-avg at k=ρ(n)", runALogStar},
		{"t1-onepluseta", "Table 1 row O(a^{1+η})/O(log a loglog n)", "n-independent palette; loglog-in-n vertex-avg", runOnePlusEta},
		{"t1-dp1-det", "Table 1 row Δ+1 (Det.)", "vertex-avg depends on a, not Δ", runDP1Det},
		{"t1-dp1-rand", "Table 1 row Δ+1 (Rand.) O(1)", "constant vertex-avg w.h.p.", runDP1Rand},
		{"t1-aloglog-rand", "Table 1 row O(aloglogn) (Rand.) O(1)", "constant vertex-avg w.h.p.", runALogLogRand},
		{"t2-mis", "Table 2 MIS", "O(a+log*n)-shaped vertex-avg vs Θ(log n)-shaped baselines", runMIS},
		{"t2-edge", "Table 2 (2Δ-1)-edge-coloring", "O(a+log*n)-shaped vertex-avg, ≤2Δ-1 colors", runEdge},
		{"t2-mm", "Table 2 maximal matching", "O(a+log*n)-shaped vertex-avg", runMM},
		{"fig1", "Figure 1", "segment lengths log^(i) n and per-segment schedule", runFig1},
		{"ring-reference", "§2 context [12]", "leader election: O(log n) avg commitment vs Θ(n) worst; ring 3-coloring: log* both", runRingReference},
		{"faults", "fault model (DESIGN.md §8)", "degradation is graceful and deterministic: losses and crashes raise rounds and conflicts smoothly", runFaults},
		{"ablation-eps", "design choice (§6.1)", "eps trades the palette factor A=(2+eps)a against decay speed", runAblationEps},
		{"ablation-k", "design choice (§7.5)", "k trades colors against vertex-averaged rounds", runAblationK},
		{"table1", "Table 1 (summary)", "all vertex-coloring rows at one size", runTable1},
		{"table2", "Table 2 (summary)", "all symmetry-breaking rows at one size", runTable2},
	}
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// forestCached returns the workhorse family's graph from the shared
// graph cache (vavg.CachedGen), so the algorithms and experiments that
// sweep the same (n, a, seed) grid share one read-only graph per point.
func forestCached(n, a int, seed int64) *vavg.Graph {
	return vavg.CachedGen("forests", func(n int) *vavg.Graph {
		return vavg.ForestUnion(n, a, seed)
	}, "a", a, "seed", seed)(n)
}

// runPoint is one (algorithm, graph, params) cell of an experiment table.
type runPoint struct {
	alg vavg.Algorithm
	g   *vavg.Graph
	p   vavg.Params
}

// medianRuns is the sweep scheduler: it executes every point across every
// seed on a bounded worker pool (cfg.Workers) and returns each point's
// seed-median, in point order. Dispatch is by (point, seed) index, so the
// rendered tables are byte-identical at any worker count; on error the
// lowest-indexed failure wins, also deterministically.
func (cfg Config) medianRuns(points []runPoint) ([]metrics.Run, error) {
	seeds := cfg.Seeds
	total := len(points) * len(seeds)
	runs := make([]metrics.Run, total)
	errs := make([]error, total)
	parallel.ForEach(parallel.Workers(cfg.Workers, total), total, func(i int) {
		pt := points[i/len(seeds)]
		p := pt.p
		p.Seed = seeds[i%len(seeds)]
		rep, err := pt.alg.Run(pt.g, p)
		if err != nil {
			errs[i] = err
			return
		}
		runs[i] = rep
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := make([]metrics.Run, len(points))
	for i := range points {
		out[i] = metrics.Median(runs[i*len(seeds) : (i+1)*len(seeds)])
	}
	return out, nil
}

// medianRun executes one algorithm across cfg.Seeds (in parallel) and
// reports the median.
func (cfg Config) medianRun(alg vavg.Algorithm, g *vavg.Graph, p vavg.Params) (metrics.Run, error) {
	meds, err := cfg.medianRuns([]runPoint{{alg, g, p}})
	if err != nil {
		return metrics.Run{}, err
	}
	return meds[0], nil
}

// row is one line of a sweep table: a run point, labelled, at the n the
// table reports for it.
type row struct {
	label string
	n     int
	runPoint
}

// table runs the rows' points through medianRuns and renders them as one
// table, with "-" for the colors of outputs that are not colorings.
func (cfg Config) table(rows []row) error {
	points := make([]runPoint, len(rows))
	for i, r := range rows {
		points[i] = r.runPoint
	}
	meds, err := cfg.medianRuns(points)
	if err != nil {
		return err
	}
	cells := make([][]string, len(rows))
	for i, r := range meds {
		colors := "-"
		if r.Colors >= 0 {
			colors = metrics.I(r.Colors)
		}
		cells[i] = []string{rows[i].label, metrics.I(rows[i].n),
			metrics.F(r.VertexAvg), metrics.I(r.WorstCase), colors}
	}
	metrics.Table(cfg.W, []string{"algorithm", "n", "vertex-avg", "worst-case", "colors"}, cells)
	return nil
}

// sweep runs each named algorithm over the size sweep on forest-union
// graphs of the given arboricity and renders the combined table. The
// algorithms share one cached graph per size, and all (algorithm, size,
// seed) points go through the parallel scheduler.
func sweep(cfg Config, names []string, a int, p vavg.Params) error {
	cfg = cfg.withDefaults()
	p.Arboricity = a
	var rows []row
	for _, name := range names {
		alg, err := vavg.ByName(name)
		if err != nil {
			return err
		}
		for _, n := range cfg.Sizes {
			g := forestCached(n, a, int64(n)*31+int64(a))
			rows = append(rows, row{name, g.N(), runPoint{alg, g, p}})
		}
	}
	return cfg.table(rows)
}

func runPartitionDecay(cfg Config) error {
	cfg = cfg.withDefaults()
	n := cfg.Sizes[len(cfg.Sizes)-1]
	g := vavg.ForestUnion(n, 4, 123)
	alg, _ := vavg.ByName("partition")
	// A small eps makes the threshold A tight, so the decay spreads over
	// many rounds and the geometric envelope of Lemma 6.1 is visible.
	const eps = 0.25
	rep, err := alg.Run(g, vavg.Params{Arboricity: 4, Eps: eps})
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.W, "Procedure Partition on %s, eps=%.2f (vertex-avg %.2f, worst %d):\n",
		g.Name, eps, rep.VertexAvg, rep.WorstCase)
	metrics.DecayTable(cfg.W, rep.ActivePerRound, g.N(), eps)
	fmt.Fprintln(cfg.W)
	if err := sweep(cfg, []string{"partition"}, 4, vavg.Params{Eps: eps}); err != nil {
		return err
	}

	// The k-ary tree exhibit: arboricity 1, but partition must peel one
	// tree level per round, so the worst case is Theta(log_k n) while the
	// geometric level sizes keep the average O(1) — Theorem 6.3's gap on a
	// single run.
	fmt.Fprintln(cfg.W, "\nk-ary tree exhibit (a=1, eps=1, k=6 > A):")
	tree := vavg.CachedGen("karytree", func(n int) *vavg.Graph { return vavg.KaryTree(n, 6) }, "k", 6)
	var rows []row
	for _, n := range cfg.Sizes {
		rows = append(rows, row{"partition[6-ary tree]", n,
			runPoint{alg, tree(n), vavg.Params{Arboricity: 1, Eps: 1}}})
	}
	return cfg.table(rows)
}

func runForestDecomp(cfg Config) error {
	return sweep(cfg, []string{"forest-decomp", "forest-decomp-wc"}, 3, vavg.Params{})
}

func runA2LogN(cfg Config) error {
	return sweep(cfg, []string{"arblinial-o1", "arblinial-wc"}, 3, vavg.Params{})
}

func runKA2(cfg Config) error {
	cfg = cfg.withDefaults()
	if err := sweep(cfg, []string{"a2-loglog", "iterated-arblinial-wc"}, 3, vavg.Params{}); err != nil {
		return err
	}
	fmt.Fprintln(cfg.W)
	for _, k := range []int{2, 3} {
		fmt.Fprintf(cfg.W, "ka2 with k=%d:\n", k)
		if err := sweep(cfg, []string{"ka2"}, 3, vavg.Params{K: k}); err != nil {
			return err
		}
	}
	return nil
}

func runA2LogStar(cfg Config) error {
	return rhoSweep(cfg, "ka2")
}

// rhoSweep runs one segmented algorithm at k = ρ(n), its log* setting,
// over the size sweep on a=2 forests.
func rhoSweep(cfg Config, name string) error {
	cfg = cfg.withDefaults()
	alg, err := vavg.ByName(name)
	if err != nil {
		return err
	}
	var rows []row
	for _, n := range cfg.Sizes {
		k := coloring.Rho(n)
		rows = append(rows, row{fmt.Sprintf("%s[k=ρ=%d]", name, k), n,
			runPoint{alg, forestCached(n, 2, int64(n)), vavg.Params{Arboricity: 2, K: k}}})
	}
	return cfg.table(rows)
}

func runKA(cfg Config) error {
	cfg = cfg.withDefaults()
	if err := sweep(cfg, []string{"a-loglog", "ka", "arbcolor-wc"}, 2, vavg.Params{}); err != nil {
		return err
	}
	return arbSweep(cfg, "ka", 7)
}

// arbSweep runs one algorithm over arbs(cfg) at the middle size, on
// forests of seed a*seedMul: at fixed n the vertex average should scale
// with a.
func arbSweep(cfg Config, name string, seedMul int64) error {
	fmt.Fprintln(cfg.W, "\narboricity sweep (fixed n):")
	n := cfg.Sizes[len(cfg.Sizes)/2]
	alg, err := vavg.ByName(name)
	if err != nil {
		return err
	}
	var rows []row
	for _, a := range arbs(cfg) {
		rows = append(rows, row{fmt.Sprintf("%s[a=%d]", name, a), n,
			runPoint{alg, forestCached(n, a, int64(a)*seedMul), vavg.Params{Arboricity: a}}})
	}
	return cfg.table(rows)
}

func arbs(cfg Config) []int {
	if cfg.Quick {
		return []int{1, 2}
	}
	return []int{1, 2, 4, 8}
}

func runALogStar(cfg Config) error {
	return rhoSweep(cfg, "ka")
}

func runOnePlusEta(cfg Config) error {
	cfg = cfg.withDefaults()
	if err := sweep(cfg, []string{"one-plus-eta", "legal-coloring-wc"}, 2, vavg.Params{}); err != nil {
		return err
	}
	return arbSweep(cfg, "one-plus-eta", 13)
}

// runDP1Det shows that the deterministic Δ+1 algorithm's vertex-averaged
// complexity tracks the arboricity, not the maximum degree: star forests
// of growing star size keep a=2 while Δ grows.
func runDP1Det(cfg Config) error {
	cfg = cfg.withDefaults()
	if err := sweep(cfg, []string{"deltaplus1-det"}, 2, vavg.Params{}); err != nil {
		return err
	}
	fmt.Fprintln(cfg.W, "\nΔ sweep at constant arboricity (star forests):")
	alg, _ := vavg.ByName("deltaplus1-det")
	n := cfg.Sizes[len(cfg.Sizes)/2]
	deltas := []int{4, 16, 64, 256}
	if cfg.Quick {
		deltas = []int{4, 16}
	}
	var rows []row
	for _, k := range deltas {
		g := vavg.CachedGen("starforest", func(n int) *vavg.Graph { return vavg.StarForest(n, k) }, "k", k)(n)
		rows = append(rows, row{fmt.Sprintf("deltaplus1-det[Δ≈%d]", k), n,
			runPoint{alg, g, vavg.Params{Arboricity: 2}}})
	}
	return cfg.table(rows)
}

func runDP1Rand(cfg Config) error {
	return sweep(cfg, []string{"deltaplus1-rand"}, 3, vavg.Params{})
}

func runALogLogRand(cfg Config) error {
	return sweep(cfg, []string{"aloglog-rand"}, 3, vavg.Params{})
}

func runMIS(cfg Config) error {
	return sweep(cfg, []string{"mis", "mis-wc", "mis-luby"}, 3, vavg.Params{})
}

func runEdge(cfg Config) error {
	return sweep(cfg, []string{"edgecolor"}, 3, vavg.Params{})
}

func runMM(cfg Config) error {
	return sweep(cfg, []string{"matching"}, 3, vavg.Params{})
}

// runFig1 renders the segmentation plan of Section 7.5 (Figure 1): the
// per-segment H-set counts and round windows for k = ρ(n).
func runFig1(cfg Config) error {
	cfg = cfg.withDefaults()
	n := cfg.Sizes[len(cfg.Sizes)-1]
	k := coloring.Rho(n)
	plan := segment.NewPlan(n, 2, k, 2, 2, 0, coloring.IteratedLinialRounds(n, 8))
	fmt.Fprintf(cfg.W, "Segmentation plan for n=%d, a=2, k=ρ(n)=%d (processed k..1):\n", n, k)
	var rows [][]string
	acc := 0
	for s, l := range plan.SegLen {
		rows = append(rows, []string{
			fmt.Sprintf("segment %d", plan.K-s),
			fmt.Sprintf("H_%d..H_%d", acc+1, acc+l),
			metrics.I(l),
			fmt.Sprintf("≈log^(%d) n = %d", plan.K-s, coloring.IterLog(n, plan.K-s)),
			metrics.I(plan.CWidth[s]),
		}) // windows then C-block
		acc += l
	}
	metrics.Table(cfg.W, []string{"segment", "H-sets", "len", "paper length", "C-block rounds"}, rows)
	return nil
}

func runRingReference(cfg Config) error {
	cfg = cfg.withDefaults()
	var rows [][]string
	for _, n := range cfg.Sizes {
		// Leader election costs Theta(n^2) vertex-rounds (losers relay
		// until the completion wave returns); cap the simulated ring.
		ln := n
		if ln > 2048 {
			ln = 2048
		}
		g := vavg.RingShuffled(ln, int64(ln))
		res, err := engine.RunSpec(g, engine.Spec{Step: baseline.LeaderElectionRingStep()},
			engine.Options{Seed: 1, MaxRounds: 64 * ln})
		if err != nil {
			return err
		}
		rows = append(rows, []string{"leader-ring", metrics.I(ln),
			metrics.F(res.CommitAverage()), metrics.I(res.MaxCommit()),
			fmt.Sprintf("log2 n = %.1f", math.Log2(float64(ln)))})

		alg, _ := vavg.ByName("ring-3color")
		ring := vavg.CachedGen("ring", vavg.Ring)(n)
		r, err := cfg.medianRun(alg, ring, vavg.Params{Arboricity: 2})
		if err != nil {
			return err
		}
		rows = append(rows, []string{"ring-3color", metrics.I(n),
			metrics.F(r.VertexAvg), metrics.I(r.WorstCase),
			fmt.Sprintf("log* n = %d", coloring.LogStar(n))})
	}
	metrics.Table(cfg.W, []string{"algorithm", "n", "avg (commit)", "worst (commit)", "reference"}, rows)
	return nil
}

// runTable1 renders the paper's Table 1 with measured columns.
func runTable1(cfg Config) error {
	cfg = cfg.withDefaults()
	n := cfg.Sizes[len(cfg.Sizes)-1]
	a := 3
	g := forestCached(n, a, 99)
	entries := []struct {
		name string
		p    vavg.Params
	}{
		{"ka", vavg.Params{K: 2}},
		{"ka", vavg.Params{K: coloring.Rho(n)}},
		{"one-plus-eta", vavg.Params{}},
		{"arblinial-o1", vavg.Params{}},
		{"ka2", vavg.Params{K: 2}},
		{"ka2", vavg.Params{K: coloring.Rho(n)}},
		{"a2-loglog", vavg.Params{}},
		{"a-loglog", vavg.Params{}},
		{"deltaplus1-det", vavg.Params{}},
		{"deltaplus1-rand", vavg.Params{}},
		{"aloglog-rand", vavg.Params{}},
		{"legal-coloring-wc", vavg.Params{}},
		{"arblinial-wc", vavg.Params{}},
		{"iterated-arblinial-wc", vavg.Params{}},
		{"arbcolor-wc", vavg.Params{}},
	}
	var points []runPoint
	for _, e := range entries {
		alg, err := vavg.ByName(e.name)
		if err != nil {
			return err
		}
		p := e.p
		p.Arboricity = a
		points = append(points, runPoint{alg, g, p})
	}
	meds, err := cfg.medianRuns(points)
	if err != nil {
		return err
	}
	rows := [][]string{}
	for i, r := range meds {
		e, alg := entries[i], points[i].alg
		label := e.name
		if e.p.K > 2 {
			label = fmt.Sprintf("%s[k=%d]", e.name, e.p.K)
		}
		rows = append(rows, []string{label, alg.Paper, alg.ColorBound, alg.VertexAvgBound,
			metrics.F(r.VertexAvg), metrics.I(r.WorstCase), metrics.I(r.Colors)})
	}
	fmt.Fprintf(cfg.W, "Table 1 (vertex coloring) measured at n=%d, a=%d:\n", n, a)
	metrics.Table(cfg.W, []string{"algorithm", "paper", "colors bound", "vertex-avg bound",
		"measured avg", "measured worst", "measured colors"}, rows)
	return nil
}

// runTable2 renders the paper's Table 2 with measured columns.
func runTable2(cfg Config) error {
	cfg = cfg.withDefaults()
	n := cfg.Sizes[len(cfg.Sizes)-1]
	a := 3
	g := forestCached(n, a, 99)
	var points []runPoint
	for _, name := range []string{"mis", "edgecolor", "matching", "mis-wc", "mis-luby"} {
		alg, err := vavg.ByName(name)
		if err != nil {
			return err
		}
		points = append(points, runPoint{alg, g, vavg.Params{Arboricity: a}})
	}
	meds, err := cfg.medianRuns(points)
	if err != nil {
		return err
	}
	rows := [][]string{}
	for i, r := range meds {
		alg := points[i].alg
		size := "-"
		if r.Size >= 0 {
			size = metrics.I(r.Size)
		}
		rows = append(rows, []string{alg.Name, alg.Paper, alg.VertexAvgBound,
			metrics.F(r.VertexAvg), metrics.I(r.WorstCase), size})
	}
	fmt.Fprintf(cfg.W, "Table 2 (MIS / edge coloring / matching) measured at n=%d, a=%d:\n", n, a)
	metrics.Table(cfg.W, []string{"algorithm", "paper", "vertex-avg bound",
		"measured avg", "measured worst", "solution size"}, rows)
	return nil
}

// runAblationEps sweeps the Procedure Partition slack eps: a smaller eps
// shrinks the threshold A = (2+eps)a (hence palettes and out-degrees) but
// slows the active-set decay, raising both complexity measures.
func runAblationEps(cfg Config) error {
	cfg = cfg.withDefaults()
	n := cfg.Sizes[len(cfg.Sizes)/2]
	g := forestCached(n, 3, 41)
	var rows []row
	for _, name := range []string{"partition", "arblinial-o1"} {
		alg, err := vavg.ByName(name)
		if err != nil {
			return err
		}
		for _, eps := range []float64{0.25, 0.5, 1, 2} {
			rows = append(rows, row{fmt.Sprintf("%s[eps=%.2f]", name, eps), n,
				runPoint{alg, g, vavg.Params{Arboricity: 3, Eps: eps}}})
		}
	}
	return cfg.table(rows)
}

// runAblationK sweeps the segment count k of the Section 7.5 scheme on
// both instantiations: more segments mean more palette blocks but a
// shorter first segment, hence a smaller vertex-averaged complexity.
func runAblationK(cfg Config) error {
	cfg = cfg.withDefaults()
	n := cfg.Sizes[len(cfg.Sizes)/2]
	g := forestCached(n, 3, 43)
	rho := coloring.Rho(n)
	var rows []row
	for _, name := range []string{"ka2", "ka"} {
		alg, err := vavg.ByName(name)
		if err != nil {
			return err
		}
		for k := 2; k <= rho; k++ {
			rows = append(rows, row{fmt.Sprintf("%s[k=%d]", name, k), n,
				runPoint{alg, g, vavg.Params{Arboricity: 3, K: k}}})
		}
	}
	return cfg.table(rows)
}
