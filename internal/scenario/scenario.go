// Package scenario is the deterministic adversarial layer of the
// simulator: it turns a declarative fault specification — i.i.d. message
// drops, vertex crashes with optional restarts, dynamic edge schedules —
// into the engine's compiled Adversary plus the epoch structure a dynamic
// run needs. Every decision the layer makes (which deliveries drop, which
// vertices crash) is a pure function of (run seed, scenario seed, spec),
// so a faulty run is byte-reproducible in either execution form at any
// worker count, exactly like a fault-free one.
//
// Randomness discipline: scenario code draws only from the package's own
// counter-based PRNG, never from api.Rand() — algorithm randomness and
// fault randomness are separate streams, split from separate seeds. The
// scenarioseam analyzer enforces both directions of that seam (and that
// algorithm packages never import this one).
package scenario

import (
	"fmt"
	"sort"

	"vavg/internal/engine"
	"vavg/internal/graph"
)

// Crash schedules one explicit vertex crash, in addition to (and taking
// precedence over) the random CrashFrac sample.
type Crash struct {
	// V is the vertex to crash.
	V int `json:"v"`
	// Round is the first round the vertex is crashed in (rounds below 2
	// clamp to 2: round 1 is the spawn round and always executes).
	Round int `json:"round"`
	// Restart is the absolute round the vertex reboots from a fresh init,
	// or 0 for crashed-forever.
	Restart int `json:"restart,omitempty"`
}

// EdgeEvent inserts or deletes one undirected edge at the start of a
// round, partitioning the run into epochs (see Epochs).
type EdgeEvent struct {
	// Round is the round the topology change takes effect.
	Round int `json:"round"`
	// U and V are the edge's endpoints (normalized to U < V by Parse and
	// Validate).
	U int `json:"u"`
	V int `json:"v"`
	// Insert distinguishes insertion from deletion.
	Insert bool `json:"insert"`
}

// Spec is the declarative form of an adversarial scenario. The zero value
// is the fault-free scenario: compiling it yields a nil Adversary, so a
// zero-spec run is byte-identical to a scenario-free run by construction.
type Spec struct {
	// Drop is the per-delivery i.i.d. message-drop probability in [0, 1].
	// Each (directed edge, round) delivery is dropped independently; the
	// decision is a pure hash, so re-sends to the same slot in the same
	// round share one verdict.
	Drop float64 `json:"drop,omitempty"`
	// CrashFrac crashes each vertex independently with this probability
	// (an i.i.d. sample, so the realized fraction is binomial around it).
	CrashFrac float64 `json:"crashFrac,omitempty"`
	// CrashRound is the round sampled vertices crash in; 0 means 2, the
	// earliest interceptable round.
	CrashRound int `json:"crashRound,omitempty"`
	// RestartAfter reboots sampled vertices this many rounds after their
	// crash; 0 means crashed-forever.
	RestartAfter int `json:"restartAfter,omitempty"`
	// Seed is the scenario seed, mixed with the run seed to derive every
	// decision stream; 0 means 1.
	Seed uint64 `json:"seed,omitempty"`
	// Crashes lists explicit per-vertex crash events.
	Crashes []Crash `json:"crashes,omitempty"`
	// Edges lists dynamic-topology events.
	Edges []EdgeEvent `json:"edges,omitempty"`
}

// IsZero reports whether the spec schedules no faults at all. Seed,
// CrashRound, and RestartAfter are modifiers, not faults: they are
// ignored when there is nothing for them to modify.
func (s *Spec) IsZero() bool {
	return s.Drop == 0 && s.CrashFrac == 0 && len(s.Crashes) == 0 && len(s.Edges) == 0
}

// Clone returns a deep copy of the spec. Run paths clone before
// validating: Validate canonicalizes in place, and a Spec shared across
// sweep workers must stay untouched.
func (s *Spec) Clone() *Spec {
	c := *s
	c.Crashes = append([]Crash(nil), s.Crashes...)
	c.Edges = append([]EdgeEvent(nil), s.Edges...)
	return &c
}

// Validate checks ranges and normalizes edge endpoints to U < V.
func (s *Spec) Validate() error {
	if s.Drop < 0 || s.Drop > 1 {
		return fmt.Errorf("scenario: drop probability %v outside [0, 1]", s.Drop)
	}
	if s.CrashFrac < 0 || s.CrashFrac > 1 {
		return fmt.Errorf("scenario: crash fraction %v outside [0, 1]", s.CrashFrac)
	}
	if s.CrashRound < 0 {
		return fmt.Errorf("scenario: negative crash round %d", s.CrashRound)
	}
	if s.RestartAfter < 0 {
		return fmt.Errorf("scenario: negative restart delay %d", s.RestartAfter)
	}
	for i := range s.Crashes {
		c := &s.Crashes[i]
		if c.V < 0 {
			return fmt.Errorf("scenario: crash %d: negative vertex %d", i, c.V)
		}
		if c.Round < 0 {
			return fmt.Errorf("scenario: crash %d: negative round %d", i, c.Round)
		}
		if c.Restart < 0 {
			return fmt.Errorf("scenario: crash %d: negative restart round %d", i, c.Restart)
		}
		// Canonicalize to the engine's clamps now, so the compact String
		// form round-trips through Parse unchanged.
		if c.Round < 2 {
			c.Round = 2
		}
		if c.Restart != 0 && c.Restart <= c.Round {
			c.Restart = c.Round + 1
		}
	}
	// Canonicalize empty schedules to nil (the JSON form can decode "[]"
	// into an empty non-nil slice) so validated specs compare and clone
	// consistently.
	if len(s.Crashes) == 0 {
		s.Crashes = nil
	}
	if len(s.Edges) == 0 {
		s.Edges = nil
	}
	for i := range s.Edges {
		e := &s.Edges[i]
		if e.U < 0 || e.V < 0 {
			return fmt.Errorf("scenario: edge event %d: negative endpoint", i)
		}
		if e.U == e.V {
			return fmt.Errorf("scenario: edge event %d: self-loop at %d", i, e.U)
		}
		if e.Round < 1 {
			return fmt.Errorf("scenario: edge event %d: round %d below 1", i, e.Round)
		}
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
	}
	return nil
}

// Scenario PRNG stream tags: each derived decision stream mixes a
// distinct tag so drop verdicts, crash sampling, and epoch reseeding
// never correlate.
const (
	streamDrop  = 0x0d
	streamCrash = 0xc0
	streamEpoch = 0xe0
)

// deriveSeed folds (run seed, scenario seed, stream tag) into one 64-bit
// stream seed through the engine's splitmix64 finalizer.
func deriveSeed(runSeed int64, scenarioSeed uint64, stream uint64) uint64 {
	if scenarioSeed == 0 {
		scenarioSeed = 1
	}
	return engine.Mix64(engine.Mix64(uint64(runSeed)^scenarioSeed) + stream)
}

// probBar converts a probability to the 64-bit threshold form the engine
// compares hashes against: a decision fires iff hash < bar.
func probBar(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return ^uint64(0)
	}
	return uint64(p * float64(1<<32) * float64(1<<32))
}

// Compile builds the engine Adversary for an n-vertex run: the drop
// threshold, the sampled-plus-explicit crash schedule, both normalized
// and ready for either execution form. A spec with no drop and no crashes compiles
// to nil — the literal fault-free hot path — even when it carries edge
// events (those are epoch structure, not engine state; see Epochs).
func (s *Spec) Compile(n int, runSeed int64) (*engine.Adversary, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Drop == 0 && s.CrashFrac == 0 && len(s.Crashes) == 0 {
		return nil, nil
	}
	adv := &engine.Adversary{
		Seed:    deriveSeed(runSeed, s.Seed, streamDrop),
		DropBar: probBar(s.Drop),
	}
	if s.CrashFrac > 0 || len(s.Crashes) > 0 {
		adv.CrashAt = make([]int32, n)
		restarts := false
		if s.CrashFrac > 0 {
			crashRound := s.CrashRound
			if crashRound == 0 {
				crashRound = 2
			}
			sel := deriveSeed(runSeed, s.Seed, streamCrash)
			bar := probBar(s.CrashFrac)
			for v := 0; v < n; v++ {
				if engine.Mix64(sel^uint64(v)) < bar {
					adv.CrashAt[v] = int32(crashRound)
				}
			}
			if s.RestartAfter > 0 {
				restarts = true
			}
		}
		for _, c := range s.Crashes {
			if c.V >= n {
				return nil, fmt.Errorf("scenario: crash vertex %d outside graph of %d vertices", c.V, n)
			}
			if c.Restart != 0 {
				restarts = true
			}
		}
		if restarts {
			adv.RestartAt = make([]int32, n)
			if s.CrashFrac > 0 && s.RestartAfter > 0 {
				for v := 0; v < n; v++ {
					if adv.CrashAt[v] != 0 {
						adv.RestartAt[v] = adv.CrashAt[v] + int32(s.RestartAfter)
					}
				}
			}
		}
		// Explicit events override the sample.
		for _, c := range s.Crashes {
			adv.CrashAt[c.V] = int32(c.Round)
			if adv.RestartAt != nil {
				adv.RestartAt[c.V] = int32(c.Restart)
			}
		}
	}
	if err := adv.Normalize(n); err != nil {
		return nil, err
	}
	return adv, nil
}

// EpochSeed derives the drop-stream reseed for repair epoch i, so each
// epoch's loss pattern is fresh but still a pure function of the seeds.
func (s *Spec) EpochSeed(runSeed int64, epoch int) int64 {
	return int64(deriveSeed(runSeed, s.Seed, streamEpoch+uint64(epoch)))
}

// Epoch is one topology era of a dynamic run: the edge events taking
// effect at its start, with Affected listing every endpoint they touch.
type Epoch struct {
	// Round is the scheduled round of this epoch's events (informational:
	// repair runs re-execute affected vertices after the base run).
	Round int
	// Events are this epoch's insertions and deletions.
	Events []EdgeEvent
	// Affected lists the distinct endpoints of Events, ascending.
	Affected []int
}

// Epochs groups the spec's edge events by round, ascending — the repair
// schedule of a dynamic run. Events whose endpoints fall outside the
// n-vertex graph are rejected.
func (s *Spec) Epochs(n int) ([]Epoch, error) {
	if len(s.Edges) == 0 {
		return nil, nil
	}
	events := make([]EdgeEvent, len(s.Edges))
	copy(events, s.Edges)
	sort.SliceStable(events, func(i, j int) bool { return events[i].Round < events[j].Round })
	var out []Epoch
	for _, e := range events {
		if e.U >= n || e.V >= n {
			return nil, fmt.Errorf("scenario: edge event {%d,%d} outside graph of %d vertices", e.U, e.V, n)
		}
		if len(out) == 0 || out[len(out)-1].Round != e.Round {
			out = append(out, Epoch{Round: e.Round})
		}
		ep := &out[len(out)-1]
		ep.Events = append(ep.Events, e)
	}
	for i := range out {
		seen := map[int]bool{}
		for _, e := range out[i].Events {
			seen[e.U] = true
			seen[e.V] = true
		}
		for v := range seen {
			out[i].Affected = append(out[i].Affected, v)
		}
		sort.Ints(out[i].Affected)
	}
	return out, nil
}

// Apply produces the graph after an epoch's events: deletions remove the
// named edges (missing edges are ignored), insertions add them (existing
// edges are kept once). The rebuilt graph keeps the input's name and
// certified arboricity bound — the bound may no longer be tight after
// churn, which is part of what degradation runs measure.
func Apply(g *graph.Graph, events []EdgeEvent) *graph.Graph {
	drop := map[graph.Edge]bool{}
	add := map[graph.Edge]bool{}
	for _, e := range events {
		ge := graph.Edge{U: int32(e.U), V: int32(e.V)}
		if e.Insert {
			add[ge] = true
			delete(drop, ge)
		} else {
			drop[ge] = true
			delete(add, ge)
		}
	}
	var edges []graph.Edge
	for _, e := range g.Edges() {
		if drop[e] || add[e] {
			continue
		}
		edges = append(edges, e)
	}
	// The inserted edges follow in event order, each once. The CSR that
	// FromEdges builds does not depend on the order of its input.
	for _, e := range events {
		ge := graph.Edge{U: int32(e.U), V: int32(e.V)}
		if e.Insert && add[ge] {
			edges = append(edges, ge)
			delete(add, ge)
		}
	}
	ng := graph.FromEdges(g.N(), edges)
	ng.Name = g.Name
	ng.ArborBound = g.ArborBound
	return ng
}
