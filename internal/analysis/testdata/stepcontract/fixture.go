// Fixture for the stepcontract analyzer: step-form functions (those
// taking *exec.API and returning exec.Step) must never block and must
// return verdicts directly from constructor calls.
package fixture

import exec "vavg/internal/engine"

// turnBlocks calls the goroutine runner's round APIs from a step turn.
func turnBlocks(api *exec.API, inbox []exec.Msg) exec.Step {
	api.Next()  // want `api\.Next blocks`
	api.Idle(3) // want `api\.Idle blocks`
	return exec.Done(nil)
}

// turnSpawns launches scheduling the step driver owns.
func turnSpawns(api *exec.API, inbox []exec.Msg) exec.Step {
	go spin() // want "goroutine launch in step-form code"
	return exec.Done(nil)
}

func spin() {}

// turnStored returns a stored verdict instead of a constructor call.
func turnStored(api *exec.API, inbox []exec.Msg) exec.Step {
	st := exec.Done(nil)
	return st // want "must come directly from Continue/Sleep/Done"
}

// turnOK is a well-formed turn: send, then cross rounds by verdict.
func turnOK(api *exec.API, inbox []exec.Msg) exec.Step {
	api.BroadcastInt(int64(api.ID()))
	return exec.Continue(turnOK)
}

// turnSuppressed shows the sanctioned escape hatch.
func turnSuppressed(api *exec.API, inbox []exec.Msg) exec.Step {
	//lint:ignore stepcontract fixture: demonstrating an accepted suppression
	api.Next()
	return exec.Done(nil)
}

// helperNotStepForm returns no Step, so the blocking rules do not apply.
func helperNotStepForm(api *exec.API) []exec.Msg {
	return api.Next()
}

// machine is a value-typed sub-machine: its methods run inside the
// caller's turn but return a done flag, not a Step.
type machine struct{ ch chan int }

// Turn is marked step-form, so it may not block.
//
//vavg:stepform
func (m *machine) Turn(api *exec.API, inbox []exec.Msg) (done bool) {
	api.Next() // want `api\.Next blocks`
	return len(inbox) == 0
}

// Start is marked step-form, so it may not receive from a channel.
//
//vavg:stepform
func (m *machine) Start(api *exec.API) (done bool) {
	<-m.ch // want "channel receive in step-form code"
	return false
}
