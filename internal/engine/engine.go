// Package engine simulates the static synchronous message-passing (LOCAL)
// model of distributed computation used by the paper: an n-vertex graph
// whose vertices are processors, unbounded-size messages to neighbors each
// round, all vertices starting simultaneously in round 0.
//
// The model semantics — rounds, per-directed-edge message slots,
// termination accounting — live in the execution core under
// internal/engine/exec, which has two backends: "goroutines" (one
// goroutine per vertex driven by a single coordinator; the only runner for
// blocking Programs) and "step" (per-round state machines in sharded flat
// arrays that park sleeping vertices for free and fast-forward
// all-sleeping rounds). Options.Backend selects one; by default RunSpec
// runs the step form when the Spec has one and goroutines otherwise.
// Backends are execution strategies only: equal seeds produce
// byte-identical Results on every backend.
//
// Termination follows the paper's refinement of Feuilloley's definition:
// when a Program returns its output, the engine broadcasts that final
// output to the vertex's neighbors in one last counted round, and the
// vertex then performs no further computation or communication. The
// per-vertex round count r(v) is the number of rounds the vertex
// participated in, including that final round; the vertex-averaged
// complexity of a run is (1/n) * sum_v r(v).
package engine

import (
	"vavg/internal/engine/exec"
	"vavg/internal/graph"
)

// The vertex-side model types are defined by the execution core; the
// aliases keep algorithm packages independent of the backend split.
type (
	// Msg is a message received from a neighbor. Integer payloads travel
	// on an allocation-free fast lane (API.SendInt / API.BroadcastInt,
	// read with Msg.AsInt); arbitrary payloads use API.Send / API.Broadcast
	// and arrive in Msg.Data.
	Msg = exec.Msg
	// Final is the payload automatically broadcast by a vertex in its
	// last round; Output is the value the vertex's Program returned.
	Final = exec.Final
	// Program is the per-vertex code; the value it returns is the vertex
	// output, broadcast to neighbors in one final counted round.
	Program = exec.Program
	// API is the interface a Program uses to act as its vertex.
	API = exec.API
	// Result reports the outcome and cost accounting of a run.
	Result = exec.Result
	// StepProgram is the state-machine form of a Program: called once per
	// vertex, it returns the StepFn for the vertex's first turn. The step
	// backend runs these with no per-vertex goroutine.
	StepProgram = exec.StepProgram
	// StepFn is one turn of a step-form program: it receives the messages
	// delivered since the last turn and returns a Step verdict.
	StepFn = exec.StepFn
	// Step is a turn verdict: Continue, Sleep, or Done.
	Step = exec.Step
	// Spec bundles an algorithm's blocking form with its optional step
	// form for RunSpec.
	Spec = exec.Spec
	// Adversary is a compiled, immutable fault schedule: per-delivery
	// message drops plus per-vertex crash/restart windows, all pure
	// functions of immutable inputs so faulty runs stay byte-reproducible
	// on every backend. Build one with internal/scenario and normalize it
	// for the run's graph before use.
	Adversary = exec.Adversary
)

// Mix64 is the splitmix64 finalizer the adversary layer uses as its
// counter-based PRNG core, re-exported for the scenario compiler.
func Mix64(x uint64) uint64 { return exec.Mix64(x) }

// Continue ends a step turn; next runs in the following round with the
// messages delivered this round (the step form of API.Next).
func Continue(next StepFn) Step { return exec.Continue(next) }

// Sleep ends a step turn and parks the vertex for k >= 1 counted rounds
// (the step form of API.Idle).
func Sleep(k int, next StepFn) Step { return exec.Sleep(k, next) }

// Done ends a step turn and terminates the vertex with output (the step
// form of returning from a Program).
func Done(output any) Step { return exec.Done(output) }

// ErrMaxRounds is returned when a run exceeds Options.MaxRounds.
var ErrMaxRounds = exec.ErrMaxRounds

// ErrUnknownBackend is returned (wrapped) when Options.Backend names no
// backend; the message lists the valid choices.
var ErrUnknownBackend = exec.ErrUnknownBackend

// Options configure a run.
type Options struct {
	// Seed seeds the per-vertex deterministic PRNGs. Two runs with equal
	// seeds produce identical executions regardless of scheduling and of
	// the chosen backend.
	Seed int64
	// MaxRounds aborts the run if the global round count exceeds it,
	// guarding against livelocked programs. 0 means 4*(n + 64*log2(n) + 64).
	MaxRounds int
	// Backend selects the execution backend: "goroutines", "step", or
	// ""/"auto" — the step backend whenever the algorithm has a step
	// form, otherwise goroutines. Selecting "step" for an algorithm
	// without a step form falls back to goroutines.
	Backend string
	// Adv is the compiled fault schedule, or nil for the fault-free run.
	// A nil adversary costs the hot path one pointer test per flush and
	// zero allocations; a non-nil one must already be normalized for g.
	Adv *Adversary
}

// Run executes prog on every vertex of g until all vertices terminate: a
// blocking Program runs on the goroutines backend whichever backend
// opts.Backend names, and an unknown name is an error.
func Run(g *graph.Graph, prog Program, opts Options) (*Result, error) {
	return RunSpec(g, Spec{Program: prog}, opts)
}

// RunSpec executes spec on the backend selected by opts.Backend,
// preferring the step form wherever the chosen backend can run it; see
// Options.Backend for the selection rules. Which form runs is an
// execution-strategy choice only: equal seeds produce byte-identical
// Results for both forms on every backend.
func RunSpec(g *graph.Graph, spec Spec, opts Options) (*Result, error) {
	return exec.RunSpec(g, spec, opts.Backend, exec.Config{Seed: opts.Seed, MaxRounds: opts.MaxRounds, Adv: opts.Adv})
}

// Backends lists the execution backends Options.Backend accepts, besides
// "auto".
func Backends() []string { return exec.Names() }
