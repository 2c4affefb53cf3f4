package experiments

import (
	"fmt"

	"vavg"
	"vavg/internal/metrics"
	"vavg/internal/parallel"
)

// faultPoint is one (algorithm, drop rate, crash fraction) cell of the
// degradation matrix: the run's report, whose paper measures and
// adversarial accounting the matrix renders. A non-converged cell
// (Converged false) is a DNF data point — the algorithm exhausted its
// round budget under that fault load — not a failure.
type faultPoint struct {
	metrics.Run
	Drop      float64
	CrashFrac float64
	// Failed marks cells whose run aborted outright — an algorithm whose
	// internal schedule wedges under the fault load (e.g. a pipelined
	// partition assertion that joins land on time) rather than running out
	// its round budget. Whether a cell fails is deterministic in the
	// seeds; the boolean (not the error text, which names an arbitrary
	// first victim) keeps the matrix byte-reproducible.
	Failed bool
}

// faultAlgs is the degradation matrix's algorithm pool: the §6 partition
// core, both decomposition-based coloring routes, and the Table 2
// symmetry-breaking problems.
var faultAlgs = []string{"partition", "forest-decomp", "arblinial-o1", "ka2", "mis", "matching"}

// faultDrops and faultCrashFracs span the degradation matrix.
var (
	faultDrops      = []float64{0, 0.25, 0.5, 0.75}
	faultCrashFracs = []float64{0, 0.02}
)

// faultBudget bounds a degraded run's rounds relative to the fault-free
// worst case: generous enough that graceful degradation shows as rising
// round counts rather than instant DNF, finite enough that a wedged run
// is a data point instead of a hang.
func faultBudget(faultFreeWorst int) int {
	b := 8 * faultFreeWorst
	if b < 256 {
		b = 256
	}
	return b
}

// faultsSize picks the degradation matrix's graph size: the matrix runs
// at a single size (degradation is measured against fault load, not n),
// capped at 10^5 so the committed table stays quick to regenerate.
func faultsSize(cfg Config) int {
	n := cfg.Sizes[len(cfg.Sizes)-1]
	if n > 100000 {
		n = 100000
	}
	return n
}

// faultMatrix measures the degradation matrix: every fault algorithm
// under every (drop rate, crash fraction) combination on one forest-union
// graph. The fault-free cell of each algorithm runs first and fixes the
// faulty cells' round budget; all faulty cells then dispatch through the
// bounded worker pool. Every cell is a pure function of (run seed,
// scenario seed), so the matrix is byte-reproducible at any worker count.
func faultMatrix(cfg Config) ([]faultPoint, error) {
	cfg = cfg.withDefaults()
	n := faultsSize(cfg)
	seed := cfg.Seeds[0]
	const a = 3
	g := forestCached(n, a, int64(n)*31+int64(a))

	type cell struct {
		alg             vavg.Algorithm
		drop, crashFrac float64
		budget          int
	}
	var cells []cell
	baselines := make(map[string]faultPoint, len(faultAlgs))
	for _, name := range faultAlgs {
		alg, err := vavg.ByName(name)
		if err != nil {
			return nil, err
		}
		// The fault-free baseline runs serially: it is one cell of the
		// matrix and fixes the round budget of the algorithm's faulty cells.
		base, err := alg.Run(g, vavg.Params{Arboricity: a, Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("faults: fault-free %s: %w", name, err)
		}
		// A fault-free report is already Converged, with no losses and
		// ResidualConflicts -1 (not measured).
		baselines[name] = faultPoint{Run: base}
		budget := faultBudget(base.WorstCase)
		for _, drop := range faultDrops {
			for _, cf := range faultCrashFracs {
				if drop == 0 && cf == 0 {
					continue
				}
				cells = append(cells, cell{alg, drop, cf, budget})
			}
		}
	}

	faulty := make([]faultPoint, len(cells))
	parallel.ForEach(parallel.Workers(cfg.Workers, len(cells)), len(cells), func(i int) {
		c := cells[i]
		p := vavg.Params{
			Arboricity: a, Seed: seed, MaxRounds: c.budget,
			Scenario: &vavg.Scenario{Drop: c.drop, CrashFrac: c.crashFrac, CrashRound: 3, Seed: 1},
		}
		rep, err := c.alg.Run(g, p)
		if err != nil {
			// The run aborted outright: an internal schedule assertion the
			// fault load broke. Deterministic, so a legal matrix cell.
			rep = metrics.Run{Algorithm: c.alg.Name, N: n, ResidualConflicts: -1}
		}
		faulty[i] = faultPoint{Run: rep, Drop: c.drop, CrashFrac: c.crashFrac, Failed: err != nil}
	})

	// Assemble in deterministic matrix order: each algorithm's fault-free
	// baseline followed by its faulty cells.
	perAlg := len(faultDrops)*len(faultCrashFracs) - 1
	var points []faultPoint
	for i, name := range faultAlgs {
		points = append(points, baselines[name])
		points = append(points, faulty[i*perAlg:(i+1)*perAlg]...)
	}
	return points, nil
}

// runFaults renders the degradation matrix: vertex-averaged and
// worst-case complexity, loss accounting, and residual conflicts as the
// fault load grows.
func runFaults(cfg Config) error {
	cfg = cfg.withDefaults()
	points, err := faultMatrix(cfg)
	if err != nil {
		return err
	}
	var rows [][]string
	for _, pt := range points {
		conv := "yes"
		switch {
		case pt.Failed:
			conv = "failed"
		case !pt.Converged:
			conv = "DNF"
		}
		conflicts := "-"
		if pt.ResidualConflicts >= 0 {
			conflicts = metrics.I(pt.ResidualConflicts)
		}
		rows = append(rows, []string{
			pt.Algorithm, metrics.I(pt.N),
			fmt.Sprintf("%.2f", pt.Drop), fmt.Sprintf("%.2f", pt.CrashFrac),
			metrics.F(pt.VertexAvg), metrics.I(pt.WorstCase), conv,
			metrics.I(int(pt.Dropped)), metrics.I(int(pt.LostToCrash)),
			metrics.I(pt.CrashedForever), conflicts,
		})
	}
	metrics.Table(cfg.W, []string{"algorithm", "n", "drop", "crashfrac",
		"vertex-avg", "worst", "converged", "dropped", "lost-to-crash", "crashed", "conflicts"}, rows)
	return nil
}
