// Package vavg is a Go implementation of "Brief Announcement: Distributed
// Symmetry-Breaking with Improved Vertex-Averaged Complexity" (Barenboim &
// Tzur, SPAA 2018): distributed symmetry-breaking algorithms — vertex
// coloring, maximal independent set, edge coloring, maximal matching —
// whose vertex-averaged round complexity (the sum over all vertices of the
// rounds until each terminates, divided by n) is asymptotically below the
// best possible worst-case complexity.
//
// The package simulates the static synchronous message-passing (LOCAL)
// model with exact per-vertex termination accounting: registry
// algorithms run as per-round state machines on a sharded step runner,
// custom blocking programs (Simulate) on one goroutine per vertex. Every
// algorithm from the paper is available through the Algorithms registry
// together with the classical worst-case baselines its tables compare
// against:
//
//	g := vavg.ForestUnion(10000, 3, 1)       // arboricity <= 3
//	alg, _ := vavg.ByName("mis")             // Corollary 8.4
//	rep, err := alg.Run(g, vavg.Params{Arboricity: 3})
//	fmt.Println(rep.VertexAvg, rep.WorstCase)
//
// See DESIGN.md for the full paper-to-module inventory and EXPERIMENTS.md
// for the reproduced tables.
package vavg

import (
	"errors"
	"fmt"

	"vavg/internal/check"
	"vavg/internal/engine"
	"vavg/internal/extend"
	"vavg/internal/forest"
	"vavg/internal/graph"
	"vavg/internal/hpartition"
	"vavg/internal/metrics"
	"vavg/internal/scenario"
)

// Scenario is an adversarial fault specification; see Params.Scenario and
// ParseScenario.
type Scenario = scenario.Spec

// Crash is one scheduled vertex crash inside a Scenario.
type Crash = scenario.Crash

// EdgeEvent is one scheduled dynamic-graph change inside a Scenario.
type EdgeEvent = scenario.EdgeEvent

// ParseScenario reads the compact CLI form of a fault scenario (or its
// JSON form when the string starts with '{'); see scenario.Parse.
func ParseScenario(s string) (*Scenario, error) { return scenario.Parse(s) }

// Graph is the immutable input graph; see the generator functions.
type Graph = graph.Graph

// Edge is an undirected edge with U < V.
type Edge = graph.Edge

// Report records the measurements of one run.
type Report = metrics.Run

// Kind classifies an algorithm's output for validation and reporting.
type Kind int

// Algorithm output kinds.
const (
	KindVertexColoring Kind = iota
	KindEdgeColoring
	KindMIS
	KindMatching
	KindForest
	KindPartition
	KindReference
)

// Params configures a run. The zero value selects sensible defaults:
// eps=2, k=2, C=4, the graph's certified arboricity bound, seed 1. A
// negative Arboricity or MaxRounds is an ErrBadParams, and so, after
// defaulting, is Eps outside (0, 2], K < 2 or C < 1.
type Params struct {
	// Arboricity passed to the algorithms (the paper assumes it is known);
	// 0 means use the graph's certified bound, falling back to degeneracy
	// (1 on an edgeless graph); a negative value is an ErrBadParams.
	// Algorithm.Run and ListColoring also reject, as an ErrBadParams and
	// before any vertex program is built, a value under which Procedure
	// Partition cannot finish on the graph: one whose threshold
	// A = ceil((2+Eps)*Arboricity) is below the graph's degeneracy. Run
	// skips the check for the entries that never read Arboricity
	// (general-partition, deltaplus1-rand, mis-luby and the ring
	// algorithms).
	Arboricity int
	// Eps is the Procedure Partition slack in (0, 2]; 0 means 2.
	Eps float64
	// K is the segment count for the Section 7.5 scheme; 0 means 2.
	K int
	// C is the Section 7.8 recursion constant; 0 means 4.
	C int
	// Seed drives the deterministic per-vertex PRNGs; 0 means 1.
	Seed int64
	// MaxRounds guards against livelock; 0 means a generous default and a
	// negative value is an ErrBadParams. A value above 1<<30 - 1 acts as
	// 1<<30 - 1, the most rounds the engine's message stamps hold.
	MaxRounds int
	// Relabel selects the engine's vertex-relabeling layout pass: "rcm"
	// runs the engine on a reverse Cuthill–McKee view of the graph for
	// cache locality (DESIGN.md §11), ""/"off"/"none" run the graph as
	// stored. The relabeling is purely physical — vertex IDs, PRNG
	// streams, inbox order, and adversary decisions all stay in
	// original-ID space, and Results are byte-identical to an unrelabeled
	// run. Views are memoized per graph in the shared cache.
	Relabel string
	// SweepWorkers bounds the sweep scheduler's concurrency: Sweep fans
	// its (size, seed) run points across this many goroutines. 0 means
	// runtime.GOMAXPROCS. Worker count never changes results — parallel
	// and serial sweeps are byte-identical by construction.
	SweepWorkers int
	// Scenario is the adversarial fault scenario for the run: seeded
	// message drops, crashes and restarts, dynamic edge schedules. Nil and
	// the zero Spec both select the fault-free path, byte-identical to a
	// scenario-free run. Scenario runs skip hard output validation and
	// report degradation measurements (residual conflicts, losses, DNF)
	// instead; see the Report fields. Scenarios thread through Sweep like
	// every other parameter.
	Scenario *scenario.Spec
}

func (p Params) withDefaults(g *Graph) Params {
	if p.Eps == 0 {
		p.Eps = 2
	}
	if p.K == 0 {
		p.K = 2
	}
	if p.C == 0 {
		p.C = 4
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Arboricity == 0 {
		p.Arboricity = g.ArborBound
		if p.Arboricity == 0 {
			p.Arboricity = max(graph.Degeneracy(g), 1)
		}
	}
	if p.MaxRounds == 0 {
		p.MaxRounds = 1 << 21
	}
	return p
}

// ErrBadParams reports a Params field outside the range the algorithms
// are defined for; the wrapping error names the field and its bound.
var ErrBadParams = errors.New("vavg: invalid parameters")

// validate checks defaulted parameters: Arboricity >= 1, 0 < Eps <= 2,
// K >= 2, C >= 1, MaxRounds >= 1.
func (p Params) validate() error {
	switch {
	case p.Arboricity < 1:
		return fmt.Errorf("%w: Arboricity = %d, want Arboricity >= 1 (0 selects the graph's bound)", ErrBadParams, p.Arboricity)
	case p.MaxRounds < 1:
		return fmt.Errorf("%w: MaxRounds = %d, want MaxRounds >= 1 (0 selects the default)", ErrBadParams, p.MaxRounds)
	case !(p.Eps > 0 && p.Eps <= 2):
		return fmt.Errorf("%w: Eps = %v, want 0 < Eps <= 2", ErrBadParams, p.Eps)
	case p.K < 2:
		return fmt.Errorf("%w: K = %d, want K >= 2", ErrBadParams, p.K)
	case p.C < 1:
		return fmt.Errorf("%w: C = %d, want C >= 1", ErrBadParams, p.C)
	}
	return nil
}

// checkArboricity rejects an Arboricity a set by the caller that g's
// degeneracy d proves too small for Procedure Partition: a vertex joins an
// H-set only at active degree at most A = ParamA(a, eps), so the
// partition can finish exactly when d <= A, and d > A means an arboricity
// of at least ceil((d+1)/2) > a. A value at or above the graph's certified
// bound needs no check (d <= 2a-1 < A), so only a smaller value, or any
// value on a graph without a bound, pays the O(n+m) degeneracy pass. The
// default (a = 0) never fails it.
func checkArboricity(g *Graph, a int, eps float64) error {
	if a <= 0 || (g.ArborBound > 0 && a >= g.ArborBound) {
		return nil
	}
	d := graph.Degeneracy(g)
	if A := hpartition.ParamA(a, eps); d > A {
		return fmt.Errorf("%w: Arboricity = %d gives Procedure Partition threshold A = %d, below the degeneracy %d of %s, whose arboricity is therefore at least %d",
			ErrBadParams, a, A, d, g.Name, (d+2)/2)
	}
	return nil
}

// notCycle says why g is not one cycle, in O(n+m), or returns "" if it is:
// a cycle has at least 3 vertices, all of degree 2, in one component.
func notCycle(g *Graph) string {
	n := g.N()
	if n < 3 {
		return fmt.Sprintf("has %d vertices", n)
	}
	for v := 0; v < n; v++ {
		if d := g.Degree(v); d != 2 {
			return fmt.Sprintf("has vertex %d of degree %d", v, d)
		}
	}
	if _, k := graph.Components(g); k != 1 {
		return fmt.Sprintf("has %d components", k)
	}
	return ""
}

// Algorithm is a runnable entry of the registry.
type Algorithm struct {
	// Name is the registry key.
	Name string
	// Description summarizes the algorithm.
	Description string
	// Paper locates it in the paper ("§7.2", "Cor 8.4", "baseline", ...).
	Paper string
	// Kind classifies the output.
	Kind Kind
	// Deterministic reports whether the bounds are deterministic or hold
	// w.h.p.
	Deterministic bool
	// VertexAvgBound and ColorBound are the theoretical bounds as printed
	// in the paper's tables (for reports).
	VertexAvgBound string
	// ColorBound is the palette bound as a formula string, if a coloring.
	ColorBound string
	// Palette returns the concrete palette budget for validation, or 0 to
	// skip the budget audit.
	Palette func(n int, p Params) int
	// RingOnly reports that the algorithm is defined only on a graph that
	// is one cycle; Run rejects any other graph with ErrBadParams before a
	// vertex program is built.
	RingOnly bool
	// ignoresArboricity reports that neither form reads Params.Arboricity,
	// so Run does not hold it against g's degeneracy.
	ignoresArboricity bool
	// program builds the blocking per-vertex form. Every run executes
	// step, scenario repair epochs included (see repairEpoch), so program
	// is built only as the reference the equivalence suites pin step to.
	program func(p Params) engine.Program
	// step builds the per-round state-machine form of the same program,
	// which every run executes on the engine's step runner. The two forms
	// are byte-identical by construction (the equivalence suites enforce
	// it).
	step func(p Params) engine.StepProgram
}

// Run executes the algorithm on g, validates the output, and reports the
// paper's measures. Parameters out of range, an Arboricity under which
// Procedure Partition cannot finish on g (for an entry whose programs
// read it), and a RingOnly algorithm on a graph that is not one cycle
// fail with ErrBadParams before any vertex program is built.
func (alg Algorithm) Run(g *Graph, p Params) (Report, error) {
	a := p.Arboricity
	p = p.withDefaults(g)
	if err := p.validate(); err != nil {
		return Report{}, err
	}
	if !alg.ignoresArboricity {
		if err := checkArboricity(g, a, p.Eps); err != nil {
			return Report{}, err
		}
	}
	if alg.RingOnly {
		if why := notCycle(g); why != "" {
			return Report{}, fmt.Errorf("%w: %s needs a graph that is one cycle, but %s %s", ErrBadParams, alg.Name, g.Name, why)
		}
	}
	if p.Scenario != nil && !p.Scenario.IsZero() {
		return alg.runScenario(g, p)
	}
	rg, err := relabelFor(g, p)
	if err != nil {
		return Report{}, fmt.Errorf("vavg: %s on %s: %w", alg.Name, g.Name, err)
	}
	spec := engine.Spec{Step: alg.step(p)}
	// The engine runs on the (possibly relabeled) view; the audit and the
	// report below keep using g — Results are unmapped to original IDs.
	res, err := engine.RunSpec(rg, spec, engine.Options{Seed: p.Seed, MaxRounds: p.MaxRounds})
	if err != nil {
		return Report{}, fmt.Errorf("vavg: %s on %s: %w", alg.Name, g.Name, err)
	}
	rep := metrics.FromResult(alg.Name, g.Name, g.N(), g.M(), p.Arboricity, p.Seed, res)
	if err := alg.audit(g, p, res, &rep); err != nil {
		return rep, fmt.Errorf("vavg: %s on %s: %w", alg.Name, g.Name, err)
	}
	return rep, nil
}

// audit validates outputs by kind and fills the problem-specific report
// fields.
func (alg Algorithm) audit(g *Graph, p Params, res *engine.Result, rep *Report) error {
	switch alg.Kind {
	case KindVertexColoring:
		cols := make([]int, g.N())
		for v, o := range res.Output {
			c, ok := o.(int)
			if !ok {
				return fmt.Errorf("vertex %d output %T, want int", v, o)
			}
			cols[v] = c
		}
		rep.Colors = check.CountColors(cols)
		budget := 0
		if alg.Palette != nil {
			budget = alg.Palette(g.N(), p)
		}
		return check.VertexColoring(g, cols, budget)
	case KindEdgeColoring:
		colors, err := extend.CollectEdgeColors(g, res.Output)
		if err != nil {
			return err
		}
		distinct := map[int]bool{}
		for _, c := range colors {
			distinct[c] = true
		}
		rep.Colors = len(distinct)
		budget := 0
		if alg.Palette != nil {
			budget = alg.Palette(g.N(), p)
		}
		if budget == 0 {
			budget = 2*g.MaxDegree() - 1
		}
		return check.EdgeColoring(g, colors, budget)
	case KindMIS:
		in := make([]bool, g.N())
		size := 0
		for v, o := range res.Output {
			b, ok := o.(bool)
			if !ok {
				return fmt.Errorf("vertex %d output %T, want bool", v, o)
			}
			in[v] = b
			if b {
				size++
			}
		}
		rep.Size = size
		return check.MIS(g, in)
	case KindMatching:
		m := make([]int32, g.N())
		size := 0
		for v, o := range res.Output {
			w, ok := o.(int32)
			if !ok {
				return fmt.Errorf("vertex %d output %T, want int32", v, o)
			}
			m[v] = w
			if w >= 0 {
				size++
			}
		}
		rep.Size = size / 2
		return check.MaximalMatching(g, m)
	case KindForest:
		orient, labels, err := forest.Collect(g, res.Output)
		if err != nil {
			return err
		}
		maxLabel := 0
		for _, l := range labels {
			if l > maxLabel {
				maxLabel = l
			}
		}
		rep.Colors = maxLabel
		return check.ForestDecomposition(g, orient, labels, hpartition.ParamA(p.Arboricity, p.Eps))
	case KindPartition:
		h := make([]int, g.N())
		maxLater := hpartition.ParamA(p.Arboricity, p.Eps)
		for v, o := range res.Output {
			switch j := o.(type) {
			case hpartition.Join:
				h[v] = int(j.Index)
			case hpartition.GeneralJoin:
				h[v] = int(j.Index)
				if t := hpartition.GeneralThreshold(int(j.Phase), p.Eps); t > maxLater {
					maxLater = t
				}
			default:
				return fmt.Errorf("vertex %d output %T, want a Join", v, o)
			}
		}
		return check.HPartition(g, h, maxLater)
	default:
		return nil
	}
}
