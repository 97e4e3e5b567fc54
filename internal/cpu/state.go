package cpu

import (
	"deact/internal/sim"
	"deact/internal/workload"
)

// State is a Core's mutable state for core.System.Snapshot, captured only
// at a quiescent point: the core has retired its budget (done, no error, an
// empty outstanding window, a drained scheduler), so the window and the
// chain-register state are structurally zero and the state reduces to the
// counters, the retirement time and the generator's stream position. The
// engine pointer and access callback are wiring, re-established by Start.
type State struct {
	instrs     uint64
	memOps     uint64
	blockedOps uint64
	finishedAt sim.Time
	gen        workload.GeneratorState
}

// CaptureState captures the core into st. It panics if the core is not
// quiescent — snapshotting mid-flight would need the window contents and a
// pending engine event, neither of which can be restored into a fresh
// engine.
func (c *Core) CaptureState(st *State) {
	if !c.done || c.err != nil || len(c.win) != 0 ||
		c.depReady != 0 || c.chainPend != 0 || c.ahead != 0 {
		panic("cpu: CaptureState on a non-quiescent core")
	}
	st.instrs, st.memOps, st.blockedOps = c.instrs, c.memOps, c.blockedOps
	st.finishedAt = c.finishedAt
	st.gen = c.gen.State()
}

// RestoreState rewinds the core to st's quiescent point. A subsequent
// SetBudget + Start resumes execution exactly where the captured core
// would have.
func (c *Core) RestoreState(st *State) {
	c.instrs, c.memOps, c.blockedOps = st.instrs, st.memOps, st.blockedOps
	c.finishedAt = st.finishedAt
	c.done = true
	c.err = nil
	c.win.reset()
	c.depReady, c.chainPend, c.ahead = 0, 0, 0
	c.gen.RestoreState(st.gen)
}
