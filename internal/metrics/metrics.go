// Package metrics turns engine results into the measurements the paper's
// tables report — vertex-averaged complexity, worst-case complexity,
// palette sizes, active-vertex decay — and renders sweep tables.
package metrics

import (
	"fmt"
	"io"
	"math"
	"strings"

	"vavg/internal/engine"
)

// Run is the record of one algorithm execution.
type Run struct {
	Algorithm string
	Graph     string
	N, M      int
	Arbor     int
	Seed      int64
	VertexAvg float64
	WorstCase int
	RoundSum  int64
	Messages  int64
	// Colors is the number of distinct colors in the output (vertex or
	// edge coloring), or -1 when not applicable.
	Colors int
	// Size is problem-specific output volume (MIS size, matching size), or
	// -1 when not applicable.
	Size int
	// ActivePerRound records the decay of active vertices.
	ActivePerRound []int
	// StepShards is the number of contiguous shards the step runner ran
	// with, one per worker, at most min(GOMAXPROCS, n); 0 when a blocking
	// Program ran on goroutines. Results are invariant in it — this is layout
	// provenance, not a measure.
	StepShards int

	// The remaining fields are degradation accounting for adversarial
	// (scenario) runs; fault-free runs report Converged true and zeros.

	// Converged reports whether every surviving vertex terminated within
	// the round budget; false marks a DNF data point.
	Converged bool
	// Dropped counts deliveries removed by the random-loss process.
	Dropped int64
	// LostToCrash counts deliveries killed by a crashed endpoint.
	LostToCrash int64
	// CrashedForever and Restarts count vertices that died for good and
	// vertices that rebooted.
	CrashedForever int
	Restarts       int
	// ResidualConflicts counts the output constraints still violated after
	// a degraded run (monochromatic edges, uncovered vertices, ...), or -1
	// when not measured for the algorithm's output kind.
	ResidualConflicts int
}

// FromResult seeds a Run from an engine result; callers fill in the
// problem-specific fields.
func FromResult(alg, g string, n, m, arbor int, seed int64, res *engine.Result) Run {
	return Run{
		Algorithm:      alg,
		Graph:          g,
		N:              n,
		M:              m,
		Arbor:          arbor,
		Seed:           seed,
		VertexAvg:      res.VertexAverage(),
		WorstCase:      res.TotalRounds,
		RoundSum:       res.RoundSum,
		Messages:       res.Messages,
		Colors:         -1,
		Size:           -1,
		ActivePerRound: res.ActivePerRound,
		StepShards:     res.Shards,

		Converged:         true,
		Dropped:           res.Dropped,
		LostToCrash:       res.LostToCrash,
		CrashedForever:    res.CrashedForever,
		Restarts:          res.Restarts,
		ResidualConflicts: -1,
	}
}

// Median aggregates the vertex-averaged and worst-case measures of runs
// that differ only by seed.
func Median(runs []Run) Run {
	if len(runs) == 0 {
		return Run{}
	}
	out := runs[0]
	out.VertexAvg = medianF(collect(runs, func(r Run) float64 { return r.VertexAvg }))
	out.WorstCase = int(medianF(collect(runs, func(r Run) float64 { return float64(r.WorstCase) })))
	out.Colors = int(medianF(collect(runs, func(r Run) float64 { return float64(r.Colors) })))
	out.Size = int(medianF(collect(runs, func(r Run) float64 { return float64(r.Size) })))
	out.RoundSum = int64(medianF(collect(runs, func(r Run) float64 { return float64(r.RoundSum) })))
	out.Messages = int64(medianF(collect(runs, func(r Run) float64 { return float64(r.Messages) })))
	out.Seed = -1
	return out
}

func collect(runs []Run, f func(Run) float64) []float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = f(r)
	}
	return xs
}

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}

// GrowthExponent fits y ~ c * x^e over a sweep and returns e; a sweep of
// vertex-averaged complexity against n that is O(1) fits e ~ 0 while a
// Theta(log n) baseline fits a clearly positive e on log-transformed
// columns. Callers typically pass x = log n.
func GrowthExponent(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	var sx, sy, sxx, sxy float64
	n := float64(len(xs))
	for i := range xs {
		lx, ly := math.Log(xs[i]), math.Log(math.Max(ys[i], 1e-9))
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

// Table renders rows with aligned columns.
func Table(w io.Writer, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
}

// DecayTable formats the active-vertex counts together with the geometric
// bound of Lemma 6.1 for the given eps.
func DecayTable(w io.Writer, active []int, n int, eps float64) {
	rows := make([][]string, 0, len(active))
	for i, a := range active {
		bound := float64(n) * math.Pow(2/(2+eps), float64(i))
		rows = append(rows, []string{
			fmt.Sprintf("%d", i+1),
			fmt.Sprintf("%d", a),
			fmt.Sprintf("%.1f", bound),
		})
	}
	Table(w, []string{"round", "active", "Lemma 6.1 bound"}, rows)
}

// F formats a float compactly for table cells.
func F(x float64) string { return fmt.Sprintf("%.2f", x) }

// I formats an int for table cells.
func I(x int) string { return fmt.Sprintf("%d", x) }
