package extend

import (
	"fmt"

	"vavg/internal/coloring"
	"vavg/internal/engine"
	"vavg/internal/hpartition"
)

// Step (state-machine) forms of the extension-framework programs. Each
// mirrors its blocking counterpart round for round — the cross-form
// equivalence suite pins the two forms byte-identical — so the whole
// Section 8 family runs goroutine-free on the step runner.

// sweepProblem is a Problem whose Solve is a class sweep (classSweep):
// the H-set's color classes take one-round turns, and a vertex acts in
// its own. The step form's framework vertex takes the sweep's turns
// itself; the problem supplies only the per-vertex state.
type sweepProblem interface {
	Problem
	// sweep returns the vertex's sweep state, in the turn the blocking
	// Solve starts in; fin holds the neighbor finals heard so far, and
	// keeps growing during the sweep.
	sweep(fin *finals) sweeper
}

// sweeper is one vertex's part in a class sweep.
type sweeper interface {
	// act runs in the vertex's own class turn, and may broadcast.
	act(api *engine.API)
	// observe sees every message of the sweep's rounds, in inbox order,
	// before the turn acts: those of the classes the vertex slept through
	// arrive together in its next turn.
	observe(m engine.Msg)
	// output is the vertex's output once the sweep ends.
	output() any
}

func (misProblem) sweep(fin *finals) sweeper { return &misSweep{fin: fin} }

// misSweep is a vertex's state in misProblem's sweep.
type misSweep struct {
	fin              *finals // the framework's, still growing
	in, domBySameSet bool
}

func (s *misSweep) act(api *engine.API) {
	for _, out := range s.fin.byIdx {
		if in, ok := out.(bool); ok && in {
			return // dominated by an earlier set
		}
	}
	if !s.domBySameSet {
		s.in = true
		coloring.BroadcastChosen(api, sweepKind, 1)
	}
}

func (s *misSweep) observe(m engine.Msg) {
	if c, ok := coloring.AsChosen(m, sweepKind); ok && c == 1 {
		s.domBySameSet = true
	}
}

func (s *misSweep) output() any { return s.in }

func (p listColorProblem) sweep(fin *finals) sweeper {
	s := &listSweep{list: p.list, taken: map[int]bool{}, color: -1}
	for _, out := range fin.byIdx {
		if c, ok := out.(int); ok {
			s.taken[c] = true
		}
	}
	return s
}

// listSweep is a vertex's state in listColorProblem's sweep.
type listSweep struct {
	list  func(v int) []int // nil: {0..deg(v)}
	taken map[int]bool
	color int
}

func (s *listSweep) act(api *engine.API) {
	if s.list == nil {
		for c := 0; c <= api.Degree() && s.color < 0; c++ {
			if !s.taken[c] {
				s.color = c
			}
		}
	} else {
		for _, c := range s.list(api.ID()) {
			if !s.taken[c] {
				s.color = c
				break
			}
		}
	}
	if s.color < 0 {
		panic("extend: list exhausted (|L(v)| >= deg(v)+1 violated)")
	}
	coloring.BroadcastChosen(api, sweepKind, int32(s.color))
}

func (s *listSweep) observe(m engine.Msg) {
	if c, ok := coloring.AsChosen(m, sweepKind); ok {
		s.taken[int(c)] = true
	}
}

func (s *listSweep) output() any { return s.color }

// frameworkVertex is one vertex of the framework's step form: its
// partition tracker, the finals it has heard, the H-set's (A+1)-coloring
// and the problem's class sweep, driven by one StepFn that dispatches on
// phase.
type frameworkVertex struct {
	p     sweepProblem
	w     int // iteration window width
	tr    hpartition.Tracker
	fin   finals
	dp1   coloring.DeltaPlus1
	sw    sweeper
	cls   int // the sweep class of the next turn
	phase fwPhase
	fn    engine.StepFn // v.turn, bound once
}

type fwPhase uint8

const (
	fwWindow fwPhase = iota // partition advance at the top of a window
	fwTail                  // sleep through the window's remainder
	fwJoined                // the join round's tail
	fwSettle                // settle round: start the H-set's coloring
	fwColor                 // (A+1)-coloring of the H-set
	fwSweep                 // the problem's class sweep
)

// frameworkStep is the step form of Framework.
func frameworkStep(a int, eps float64, p sweepProblem) engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		return newFrameworkVertex(api, a, eps, p).fn
	}
}

// newFrameworkVertex builds a vertex of frameworkStep with its turn bound.
func newFrameworkVertex(api *engine.API, a int, eps float64, p sweepProblem) *frameworkVertex {
	v := &frameworkVertex{p: p, w: FrameworkWindow(api.N(), a, eps, p)}
	v.tr.Init(api, a, eps)
	v.fn = v.turn
	return v
}

func (v *frameworkVertex) turn(api *engine.API, inbox []engine.Msg) engine.Step {
	if v.phase == fwColor {
		if wait, done := v.dp1.Turn(api, inbox, v); !done {
			return engine.Sleep(wait, v.fn)
		}
		return v.startSweep(api)
	}
	// Every other phase absorbs its whole inbox.
	v.sink(api, inbox)
	switch v.phase {
	case fwWindow:
		v.phase = fwTail
		if v.tr.Advance(api) {
			v.phase = fwJoined
		}
		return engine.Continue(v.fn)
	case fwTail:
		v.phase = fwWindow
		return engine.Sleep(v.w-1, v.fn)
	case fwJoined:
		v.phase = fwSettle
		return engine.Continue(v.fn)
	case fwSettle:
		v.phase = fwColor
		if wait, done := v.dp1.Start(api, coloring.SetMembers(&v.tr), v.tr.A); !done {
			return engine.Sleep(wait, v.fn)
		}
		return v.startSweep(api)
	}
	for _, m := range inbox {
		v.sw.observe(m)
	}
	if v.cls == v.tr.A+1 {
		return engine.Done(v.sw.output())
	}
	return v.sweepTurn(api)
}

// startSweep hands the colored H-set to the problem's class sweep, in the
// turn of its class 0.
func (v *frameworkVertex) startSweep(api *engine.API) engine.Step {
	v.sw = v.p.sweep(&v.fin)
	v.phase = fwSweep
	return v.sweepTurn(api)
}

// sweepTurn takes the sweep turn of class v.cls: the vertex acts if the
// class is its own, then sleeps to its next sweep turn, its own class
// turn if that is still ahead and the sweep's end otherwise. In the
// classes in between it only listens.
func (v *frameworkVertex) sweepTurn(api *engine.API) engine.Step {
	at, own := v.cls, v.dp1.Color()
	if at == own {
		v.sw.act(api)
	}
	v.cls = v.tr.A + 1
	if own > at && own < v.cls {
		v.cls = own
	}
	return engine.Sleep(v.cls-at, v.fn)
}

// sink feeds messages to the partition bookkeeping and the finals.
func (v *frameworkVertex) sink(api *engine.API, msgs []engine.Msg) {
	v.tr.Absorb(api, msgs)
	v.fin.absorb(api, msgs)
}

// Stray sinks a message the coloring machine does not understand.
func (v *frameworkVertex) Stray(api *engine.API, m engine.Msg) {
	v.sink(api, []engine.Msg{m})
}

// DeltaPlus1Step is the step form of DeltaPlus1.
func DeltaPlus1Step(a int, eps float64) engine.StepProgram {
	return frameworkStep(a, eps, listColorProblem{})
}

// MISStep is the step form of MIS.
func MISStep(a int, eps float64) engine.StepProgram {
	return frameworkStep(a, eps, misProblem{})
}

// ListColoringStep is the step form of ListColoring.
func ListColoringStep(a int, eps float64, list func(v int) []int) engine.StepProgram {
	return frameworkStep(a, eps, listColorProblem{list: list})
}

// edgeRole is what distinguishes the two edge programs (edge coloring
// and maximal matching) on their shared window and subphase schedule:
// what travels on an edge's request/assign exchange.
type edgeRole interface {
	// serve handles the requests in one round's inbox as the assigner.
	serve(api *engine.API, msgs []engine.Msg)
	// wants reports whether this vertex still requests on its own edges
	// (matching stops proposing once matched; coloring always wants).
	wants() bool
	// send issues this vertex's request to the edge's head.
	send(api *engine.API, head int32)
	// record processes the head's reply to this vertex's request.
	record(msgs []engine.Msg, head int32)
	// output is the vertex's final output.
	output() any
}

func (*edgeState) wants() bool { return true }

func (st *edgeState) send(api *engine.API, head int32) {
	api.SendID(int(head), edgeRequest{Used: st.usedList()})
}

func (st *edgeState) output() any { return EdgeOutput{Assigned: st.assigned} }

func (st *matchState) wants() bool { return st.partner < 0 }

func (*matchState) send(api *engine.API, head int32) {
	api.SendIDInt(int(head), proposeMsg)
}

func (st *matchState) output() any { return st.partner }

// edgeVertex is one vertex of the edge programs' step form (see the
// blocking forms for the round schedule): its partition tracker, its
// role, the forest labels and Cole-Vishkin colorings of its member
// window, and the position in the window's two-round subphases, driven
// by one StepFn that dispatches on phase.
type edgeVertex struct {
	role edgeRole
	tr   hpartition.Tracker
	cv   coloring.CV
	// intraParent and interOut map a label to a neighbor index, or -1.
	intraParent, interOut []int
	j                     int   // the subphase's label
	c                     int32 // the intra subphase's CV color class
	mine                  bool  // this vertex requested in the subphase
	head                  int32 // the requested edge's head
	stage                 edgeStage
	phase                 edgePhase
	fn                    engine.StepFn // v.turn, bound once
}

// edgeStage is the window part whose subphases the vertex takes.
type edgeStage uint8

const (
	edActive edgeStage = iota // an active window: serve inter-set requests
	edIntra                   // member window: intra-set subphases
	edInter                   // member window: inter-set subphases
)

type edgePhase uint8

const (
	edWindow  edgePhase = iota // partition advance at the top of a window
	edTail                     // sleep to the window's inter-set subphases
	edRequest                  // a subphase's request round
	edReply                    // a subphase's reply round
	edJoined                   // the join round's tail
	edSettle                   // settle round: labels, start the CV colorings
	edCV                       // Cole-Vishkin forest 3-colorings
)

// edgeProgramStep is the step form of the shared skeleton of EdgeColoring
// and MaximalMatching; newRole builds a vertex's role.
func edgeProgramStep(a int, eps float64, newRole func() edgeRole) engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		v := &edgeVertex{role: newRole()}
		v.tr.Init(api, a, eps)
		v.fn = v.turn
		return v.fn
	}
}

func (v *edgeVertex) turn(api *engine.API, inbox []engine.Msg) engine.Step {
	if v.phase == edCV {
		if v.cv.Turn(api, inbox, v) {
			v.stage, v.j, v.c = edIntra, 1, 0
			return v.subphase(api)
		}
		return engine.Continue(v.fn)
	}
	v.tr.Absorb(api, inbox)
	switch v.phase {
	case edWindow:
		return v.window(api)
	case edTail:
		// Blocking form: Idle(1+cvr+6A) then the first serve Next.
		v.phase, v.j = edRequest, 1
		return engine.Sleep(2+coloring.CVForestRounds(api.N())+6*v.tr.A, v.fn)
	case edRequest:
		if v.stage != edInter {
			v.role.serve(api, inbox)
		}
		v.phase = edReply
		return engine.Continue(v.fn)
	case edReply:
		if v.mine {
			v.role.record(inbox, v.head)
		}
		return v.nextSubphase(api)
	case edJoined:
		v.phase = edSettle
		return engine.Continue(v.fn)
	}
	v.settle(api)
	v.phase = edCV
	v.cv.Start(api, v.tr.A, v.intraParent)
	return engine.Continue(v.fn)
}

// window takes the partition step at the top of a window.
func (v *edgeVertex) window(api *engine.API) engine.Step {
	v.phase = edTail
	if v.tr.Advance(api) {
		v.phase = edJoined
	}
	return engine.Continue(v.fn)
}

// settle labels the member's out-edges: intra-set edges toward higher
// IDs, and edges to still-active neighbors.
func (v *edgeVertex) settle(api *engine.API) {
	A := v.tr.A
	ids := api.NeighborIDs()
	labels := make([]int, 2*(A+1))
	v.intraParent, v.interOut = labels[:A+1], labels[A+1:]
	for l := range labels {
		labels[l] = -1
	}
	label := 0
	for k, h := range v.tr.NbrH {
		switch {
		case h == 0:
			label++
			v.interOut[label] = k
		case h == v.tr.HIndex && int(ids[k]) > api.ID():
			label++
			v.intraParent[label] = k
		}
	}
	if label > A {
		panic(fmt.Sprintf("extend: vertex %d out-degree %d exceeds A=%d", api.ID(), label, A))
	}
}

// nextSubphase moves past a finished subphase: an active window serves
// labels 1..A, then tops the next window; a member window takes the
// intra-set subphases (label, CV class), then the inter-set ones.
func (v *edgeVertex) nextSubphase(api *engine.API) engine.Step {
	switch v.stage {
	case edActive:
		v.j++
		if v.j > v.tr.A {
			return v.window(api)
		}
		v.phase = edRequest
		return engine.Continue(v.fn)
	case edIntra:
		v.c++
		if v.c == 3 {
			v.c = 0
			v.j++
		}
	default:
		v.j++
	}
	return v.subphase(api)
}

// subphase starts a member subphase: the vertex requests on its label-j
// edge if the subphase is its own.
func (v *edgeVertex) subphase(api *engine.API) engine.Step {
	if v.stage == edIntra && v.j > v.tr.A {
		v.stage, v.j = edInter, 1
	}
	var out int
	if v.stage == edIntra {
		out = v.intraParent[v.j]
		v.mine = out >= 0 && v.cv.Colors()[v.j] == v.c && v.role.wants()
	} else {
		if v.j > v.tr.A {
			return engine.Done(v.role.output())
		}
		out = v.interOut[v.j]
		v.mine = out >= 0 && v.role.wants()
	}
	if v.mine {
		v.head = api.NeighborIDs()[out]
		v.role.send(api, v.head)
	}
	v.phase = edRequest
	return engine.Continue(v.fn)
}

// Stray absorbs a message the Cole-Vishkin machine does not understand.
func (v *edgeVertex) Stray(api *engine.API, m engine.Msg) {
	v.tr.Absorb(api, []engine.Msg{m})
}

// EdgeColoringStep is the step form of EdgeColoring.
func EdgeColoringStep(a int, eps float64) engine.StepProgram {
	return edgeProgramStep(a, eps, func() edgeRole {
		return &edgeState{used: map[int32]bool{}, assigned: map[int32]int32{}}
	})
}

// MaximalMatchingStep is the step form of MaximalMatching.
func MaximalMatchingStep(a int, eps float64) engine.StepProgram {
	return edgeProgramStep(a, eps, func() edgeRole { return &matchState{partner: -1} })
}
