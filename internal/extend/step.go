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

// StepProblem is a Problem whose Solve also has a step form.
type StepProblem interface {
	Problem
	// StartSolve begins the step form of Solve inside the caller's current
	// turn — the turn the H-set's (A+1)-coloring finished in — and must
	// terminate with engine.Done carrying Solve's output, in the turn the
	// blocking Solve returns in.
	StartSolve(api *engine.API, ctx *HSetContext) engine.Step
}

// startClassSweep is the step form of classSweep: act runs inside the
// vertex's own class turn, every round's inbox reaches observe, and done
// fires in the turn the blocking sweep returns in.
func startClassSweep(api *engine.API, numClasses, myClass int, act func(),
	observe func([]engine.Msg), done func() engine.Step) engine.Step {
	cls := 0
	var loop engine.StepFn
	loop = func(api *engine.API, inbox []engine.Msg) engine.Step {
		observe(inbox)
		cls++
		if cls == numClasses {
			return done()
		}
		if cls == myClass {
			act()
		}
		return engine.Continue(loop)
	}
	if cls == myClass {
		act()
	}
	return engine.Continue(loop)
}

// StartSolve is the step form of misProblem.Solve.
func (misProblem) StartSolve(api *engine.API, ctx *HSetContext) engine.Step {
	dominated := func() bool {
		for _, out := range ctx.Finals {
			if in, ok := out.(bool); ok && in {
				return true
			}
		}
		return false
	}
	inMIS := false
	domBySameSet := false
	return startClassSweep(api, ctx.A+1, ctx.SetColor, func() {
		if !dominated() && !domBySameSet {
			inMIS = true
			coloring.BroadcastChosen(api, sweepKind, 1)
		}
	}, func(msgs []engine.Msg) {
		for _, m := range msgs {
			if c, ok := coloring.AsChosen(m, sweepKind); ok && c == 1 {
				domBySameSet = true
			}
		}
		ctx.Sink(msgs)
	}, func() engine.Step {
		return engine.Done(inMIS)
	})
}

// StartSolve is the step form of listColorProblem.Solve.
func (p listColorProblem) StartSolve(api *engine.API, ctx *HSetContext) engine.Step {
	list := p.list
	if list == nil {
		list = func(v int) []int {
			out := make([]int, api.Degree()+1)
			for i := range out {
				out[i] = i
			}
			return out
		}
	}
	taken := map[int]bool{}
	for _, out := range ctx.Finals {
		if c, ok := out.(int); ok {
			taken[c] = true
		}
	}
	myColor := -1
	return startClassSweep(api, ctx.A+1, ctx.SetColor, func() {
		for _, c := range list(api.ID()) {
			if !taken[c] {
				myColor = c
				break
			}
		}
		if myColor < 0 {
			panic("extend: list exhausted (|L(v)| >= deg(v)+1 violated)")
		}
		coloring.BroadcastChosen(api, sweepKind, int32(myColor))
	}, func(msgs []engine.Msg) {
		for _, m := range msgs {
			if c, ok := coloring.AsChosen(m, sweepKind); ok {
				taken[int(c)] = true
			}
		}
		ctx.Sink(msgs)
	}, func() engine.Step {
		return engine.Done(myColor)
	})
}

// frameworkVertex is one vertex of FrameworkStep until it hands off to
// StartSolve: its partition tracker, the finals it has heard, its H-set
// context and the set's (A+1)-coloring, driven by one StepFn that
// dispatches on phase.
type frameworkVertex struct {
	api   *engine.API
	p     StepProblem
	w     int // iteration window width
	tr    hpartition.Tracker
	fin   finals
	ctx   HSetContext
	dp1   coloring.DeltaPlus1
	phase fwPhase
	fn    engine.StepFn // v.turn, bound once
}

type fwPhase uint8

const (
	fwWindow fwPhase = iota // partition advance at the top of a window
	fwTail                  // sleep through the window's remainder
	fwJoined                // the join round's tail
	fwSettle                // settle round: build the context, start coloring
	fwColor                 // (A+1)-coloring of the H-set
)

// FrameworkStep is the step form of Framework.
func FrameworkStep(a int, eps float64, p StepProblem) engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		v := &frameworkVertex{
			api: api,
			p:   p,
			w:   FrameworkWindow(api.N(), a, eps, p),
			fin: finals{byIdx: map[int]any{}},
		}
		v.tr.Init(api, a, eps)
		v.fn = v.turn
		return v.fn
	}
}

func (v *frameworkVertex) turn(api *engine.API, inbox []engine.Msg) engine.Step {
	if v.phase == fwColor {
		if v.dp1.Turn(api, inbox, v) {
			return v.solve(api)
		}
		return engine.Continue(v.fn)
	}
	// Every other phase absorbs its whole inbox.
	v.sink(inbox)
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
	}
	v.ctx = HSetContext{
		A:       v.tr.A,
		Tracker: &v.tr,
		Members: coloring.SetMembers(&v.tr),
		Finals:  v.fin.byIdx,
		Sink:    v.sink,
	}
	v.phase = fwColor
	if v.dp1.Start(api, v.ctx.Members, v.ctx.A) {
		return v.solve(api)
	}
	return engine.Continue(v.fn)
}

// solve hands the colored H-set to the problem.
func (v *frameworkVertex) solve(api *engine.API) engine.Step {
	v.ctx.SetColor = v.dp1.Color()
	return v.p.StartSolve(api, &v.ctx)
}

// sink feeds messages to the partition bookkeeping and the finals.
func (v *frameworkVertex) sink(msgs []engine.Msg) {
	v.tr.Absorb(v.api, msgs)
	v.fin.absorb(v.api, msgs)
}

// Stray sinks a message the coloring machine does not understand.
func (v *frameworkVertex) Stray(_ *engine.API, m engine.Msg) {
	v.sink([]engine.Msg{m})
}

// DeltaPlus1Step is the step form of DeltaPlus1.
func DeltaPlus1Step(a int, eps float64) engine.StepProgram {
	return FrameworkStep(a, eps, listColorProblem{})
}

// MISStep is the step form of MIS.
func MISStep(a int, eps float64) engine.StepProgram {
	return FrameworkStep(a, eps, misProblem{})
}

// ListColoringStep is the step form of ListColoring.
func ListColoringStep(a int, eps float64, list func(v int) []int) engine.StepProgram {
	return FrameworkStep(a, eps, listColorProblem{list: list})
}

// edgeRole parameterizes the shared state machine of the two edge
// programs (edge coloring and maximal matching): both run the identical
// window and subphase schedule and differ only in what travels on an
// edge's request/assign exchange.
type edgeRole struct {
	// serve handles the requests in one round's inbox as the assigner.
	serve func(api *engine.API, msgs []engine.Msg)
	// wants reports whether this vertex still requests on its own edges
	// (matching stops proposing once matched; coloring always wants).
	wants func() bool
	// send issues this vertex's request to the edge's head.
	send func(api *engine.API, head int32)
	// record processes the head's reply to this vertex's request.
	record func(msgs []engine.Msg, head int32)
	// output is the vertex's final output.
	output func() any
}

// edgeProgramStep is the step form of the shared skeleton of EdgeColoring
// and MaximalMatching (see the blocking forms for the round schedule).
func edgeProgramStep(a int, eps float64, mk func(api *engine.API) edgeRole) engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		A := hpartition.ParamA(a, eps)
		cvr := coloring.CVForestRounds(api.N())
		W := EdgeColoringWindow(api.N(), a, eps)
		tr := hpartition.NewTracker(api, a, eps)
		role := mk(api)
		sink := func(ms []engine.Msg) { tr.Absorb(api, ms) }

		// Member-window state, filled in the settle turn.
		var ids []int32
		var cv []int32
		var intraParent, interOut []int
		var j int
		var c int32
		var mine bool
		var head int32

		var intraRecv1, intraRecv2, interRecv1, interRecv2 engine.StepFn
		var startIntra, startInter func(api *engine.API) engine.Step
		startIntra = func(api *engine.API) engine.Step {
			if j > A {
				j = 1
				return startInter(api)
			}
			mine = intraParent[j] >= 0 && cv[j] == c && role.wants()
			if mine {
				head = ids[intraParent[j]]
				role.send(api, head)
			}
			return engine.Continue(intraRecv1)
		}
		intraRecv1 = func(api *engine.API, inbox []engine.Msg) engine.Step {
			sink(inbox)
			role.serve(api, inbox)
			return engine.Continue(intraRecv2)
		}
		intraRecv2 = func(api *engine.API, inbox []engine.Msg) engine.Step {
			sink(inbox)
			if mine {
				role.record(inbox, head)
			}
			c++
			if c == 3 {
				c = 0
				j++
			}
			return startIntra(api)
		}
		startInter = func(api *engine.API) engine.Step {
			if j > A {
				return engine.Done(role.output())
			}
			mine = interOut[j] >= 0 && role.wants()
			if mine {
				head = ids[interOut[j]]
				role.send(api, head)
			}
			return engine.Continue(interRecv1)
		}
		interRecv1 = func(api *engine.API, inbox []engine.Msg) engine.Step {
			sink(inbox)
			return engine.Continue(interRecv2)
		}
		interRecv2 = func(api *engine.API, inbox []engine.Msg) engine.Step {
			sink(inbox)
			if mine {
				role.record(inbox, head)
			}
			j++
			return startInter(api)
		}
		settle := func(api *engine.API, inbox []engine.Msg) engine.Step {
			sink(inbox)
			ids = api.NeighborIDs()
			my := tr.HIndex
			intraParent = make([]int, A+1)
			interOut = make([]int, A+1)
			for l := range intraParent {
				intraParent[l] = -1
				interOut[l] = -1
			}
			label := 0
			for k, h := range tr.NbrH {
				switch {
				case h == 0:
					label++
					interOut[label] = k
				case h == my && int(ids[k]) > api.ID():
					label++
					intraParent[label] = k
				}
			}
			if label > A {
				panic(fmt.Sprintf("extend: vertex %d out-degree %d exceeds A=%d", api.ID(), label, A))
			}
			return coloring.StartCVForests(api, A, intraParent, sink, func(colors []int32) engine.Step {
				cv = colors
				j, c = 1, 0
				return startIntra(api)
			})
		}
		js1 := func(api *engine.API, inbox []engine.Msg) engine.Step {
			sink(inbox)
			return engine.Continue(settle)
		}

		// Active-window body: idle through settle+CV+intra, then serve the
		// A inter-set subphases as head.
		var jj int
		var windowTop func(api *engine.API) engine.Step
		var tailA, serveFn, afterFn engine.StepFn
		tailA = func(api *engine.API, inbox []engine.Msg) engine.Step {
			sink(inbox)
			if A == 0 {
				return engine.Sleep(W-1, func(api *engine.API, inbox []engine.Msg) engine.Step {
					sink(inbox)
					return windowTop(api)
				})
			}
			jj = 1
			// Blocking form: Idle(1+cvr+6A) then the first serve Next.
			return engine.Sleep(2+cvr+6*A, serveFn)
		}
		serveFn = func(api *engine.API, inbox []engine.Msg) engine.Step {
			sink(inbox)
			role.serve(api, inbox)
			return engine.Continue(afterFn)
		}
		afterFn = func(api *engine.API, inbox []engine.Msg) engine.Step {
			sink(inbox)
			jj++
			if jj <= A {
				return engine.Continue(serveFn)
			}
			return windowTop(api)
		}
		windowTop = func(api *engine.API) engine.Step {
			if tr.Advance(api) {
				return engine.Continue(js1)
			}
			return engine.Continue(tailA)
		}
		return func(api *engine.API, _ []engine.Msg) engine.Step {
			return windowTop(api)
		}
	}
}

// EdgeColoringStep is the step form of EdgeColoring.
func EdgeColoringStep(a int, eps float64) engine.StepProgram {
	return edgeProgramStep(a, eps, func(api *engine.API) edgeRole {
		st := &edgeState{used: map[int32]bool{}, assigned: map[int32]int32{}}
		return edgeRole{
			serve: st.serveRequests,
			wants: func() bool { return true },
			send: func(api *engine.API, head int32) {
				api.SendID(int(head), edgeRequest{Used: st.usedList()})
			},
			record: st.recordAssign,
			output: func() any { return EdgeOutput{Assigned: st.assigned} },
		}
	})
}

// MaximalMatchingStep is the step form of MaximalMatching.
func MaximalMatchingStep(a int, eps float64) engine.StepProgram {
	return edgeProgramStep(a, eps, func(api *engine.API) edgeRole {
		st := &matchState{partner: -1}
		return edgeRole{
			serve: st.serveProposals,
			wants: func() bool { return st.partner < 0 },
			send: func(api *engine.API, head int32) {
				api.SendIDInt(int(head), proposeMsg)
			},
			record: st.recordAccept,
			output: func() any { return st.partner },
		}
	})
}
