// Package cpu models the out-of-order cores of Table II (4 cores, 2GHz,
// 2 issues/cycle, 32 maximum outstanding requests) at the fidelity the
// paper's evaluation needs: compute windows retire at the peak issue rate,
// independent memory references overlap up to the outstanding-request
// window, and dependent (pointer-chase) references block — so serialized
// translation latency hurts exactly the way it does in the paper, while
// streaming misses are partially hidden.
//
// One timing model covers both core shapes: a WindowSize-entry scheduling
// window with register-style chain dependencies. The core issues past an
// incomplete dependent load up to WindowSize-1 ops deep, and dependent
// loads serialize through the chain register plus a SchedulerLatency
// wakeup stage. The in-order core is the one-entry window with a
// zero-latency scheduler: it cannot run ahead of any dependent load, so it
// stalls on every one.
//
// A Core is a self-rescheduling sim.Handler: its steady-state event chain
// allocates nothing (the outstanding window is a slice sorted latest-first
// that never outgrows its preallocated capacity at MaxOutstanding <= 64,
// the scheduler three scalar fields), and retirement order is a
// deterministic function of the generator stream and the access latencies
// it observes.
package cpu

import (
	"fmt"

	"deact/internal/sim"
	"deact/internal/workload"
)

// AccessFunc performs one memory reference through the node's full memory
// system and returns its completion time. Implemented by the node package.
type AccessFunc func(now sim.Time, coreID int, op workload.Op) (sim.Time, error)

// Config describes one core.
type Config struct {
	// ID is the core's index within its node.
	ID int
	// CycleTime is the core clock period (500ps at 2GHz).
	CycleTime sim.Time
	// IssueWidth is instructions per cycle at peak (2).
	IssueWidth int
	// MaxOutstanding bounds overlapped memory references (32).
	MaxOutstanding int
	// Instructions is the retirement budget for the run.
	Instructions uint64

	// WindowSize is the scheduling window in ops: the core may issue at
	// most WindowSize-1 ops beyond an incomplete dependent (chain) load
	// before stalling until it completes. 1 is the in-order core. Must be
	// >= 1.
	WindowSize int
	// SchedulerLatency is the wakeup/select delay in core cycles between a
	// chain load completing and its dependent issuing. Must be >= 0.
	SchedulerLatency int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.CycleTime == 0:
		return fmt.Errorf("cpu: zero cycle time")
	case c.IssueWidth <= 0:
		return fmt.Errorf("cpu: issue width must be positive")
	case c.MaxOutstanding <= 0:
		return fmt.Errorf("cpu: outstanding window must be positive")
	case c.Instructions == 0:
		return fmt.Errorf("cpu: zero instruction budget")
	case c.WindowSize <= 0:
		return fmt.Errorf("cpu: scheduling window must be positive")
	case c.SchedulerLatency < 0:
		return fmt.Errorf("cpu: scheduler latency must be non-negative")
	}
	return nil
}

// window holds the completion times of in-flight independent references,
// sorted latest-first, so the earliest completion is the last element: the
// full-window stall reads it and the drain of completed references pops it.
// A new completion is usually earlier than most in-flight misses (an L1 hit
// on a prefetched block), so insert walks in from the end and moves only
// the entries that complete before it.
type window []sim.Time

// maxWindowPrealloc caps the capacity newWindow reserves: MaxOutstanding is
// an unbounded config value, and append grows the window past the cap when
// a run really keeps that many references in flight.
const maxWindowPrealloc = 64

func newWindow(capacity int) window { return make(window, 0, min(capacity, maxWindowPrealloc)) }

// min returns the earliest outstanding completion. The window must be
// non-empty.
func (w window) min() sim.Time { return w[len(w)-1] }

// max returns the latest outstanding completion. The window must be
// non-empty.
func (w window) max() sim.Time { return w[0] }

// insert adds a completion time, keeping the window sorted latest-first.
func (w *window) insert(t sim.Time) {
	s := append(*w, t)
	i := len(s) - 1
	for ; i > 0 && s[i-1] < t; i-- {
		s[i] = s[i-1]
	}
	s[i] = t
	*w = s
}

// drain removes every completion at or before now.
func (w *window) drain(now sim.Time) {
	s := *w
	for len(s) > 0 && s[len(s)-1] <= now {
		s = s[:len(s)-1]
	}
	*w = s
}

// reset empties the window.
func (w *window) reset() { *w = (*w)[:0] }

// Core is one simulated core, driven as a state machine on the engine. It
// implements sim.Handler, so steady-state stepping schedules zero
// allocations per instruction window.
type Core struct {
	cfg    Config
	gen    workload.Source
	access AccessFunc
	engine *sim.Engine

	win window // in-flight independent references, latest completion first

	// Scheduler state (zero at quiescence; chainPend and ahead stay zero
	// in a one-entry window).
	depReady  sim.Time // completion time of the last chain load (the chain register)
	chainPend sim.Time // completion of the chain load the core is running past; 0 = none
	ahead     int      // ops the core may still issue before chainPend must retire

	instrs     uint64
	memOps     uint64
	blockedOps uint64
	finishedAt sim.Time
	done       bool
	err        error
}

// New builds a core driven by any workload source (generator or trace
// replay).
func New(cfg Config, gen workload.Source, access AccessFunc) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if gen == nil || access == nil {
		return nil, fmt.Errorf("cpu: generator and access function required")
	}
	return &Core{cfg: cfg, gen: gen, access: access, win: newWindow(cfg.MaxOutstanding)}, nil
}

// Start schedules the core's next step on the engine. On a fresh core that
// is time zero; after SetBudget extended a retired core, execution resumes
// where it left off (the engine clamps past times to its own clock).
func (c *Core) Start(e *sim.Engine) {
	c.engine = e
	e.ScheduleHandler(c.finishedAt, c)
}

// SetBudget replaces the total instruction budget and clears the done flag
// so the core can be (re)started — the warmup/measurement phasing hook.
// It does not clear an abort error.
func (c *Core) SetBudget(total uint64) {
	c.cfg.Instructions = total
	if c.err == nil {
		c.done = false
	}
}

// Handle implements sim.Handler: one engine dispatch is one core step.
func (c *Core) Handle(now sim.Time) { c.step(now) }

// step executes one instruction window: the compute gap, then the memory
// reference, then schedules the next step at the time the core can proceed.
//
// Independent references occupy a slot of the MaxOutstanding miss window
// and stall the core only when it is full. Dependent (chain) loads differ
// in two ways: their issue waits for the chain register — the previous
// chain load's completion plus the scheduler's wakeup/select latency — and
// the core keeps issuing past them instead of stalling, up to WindowSize-1
// ops beyond the incomplete load, after which it stalls until the load
// retires. A one-entry window cannot run ahead at all: the in-order core
// stalls on every dependent load.
func (c *Core) step(now sim.Time) {
	if c.done {
		return
	}
	if c.instrs >= c.cfg.Instructions {
		c.retire(now)
		return
	}
	op := c.gen.Next()
	c.instrs += uint64(op.Compute) + 1
	c.memOps++

	// Compute window retires at the peak issue rate.
	cycles := (uint64(op.Compute) + uint64(c.cfg.IssueWidth)) / uint64(c.cfg.IssueWidth)
	issueAt := now + sim.Time(cycles)*c.cfg.CycleTime
	if op.Blocking && c.depReady > 0 {
		// Register-style dependency: the chain load's address comes from
		// the register the previous chain load wrote, through the
		// scheduler's wakeup/select stage.
		if ready := c.depReady + sim.Time(c.cfg.SchedulerLatency)*c.cfg.CycleTime; ready > issueAt {
			issueAt = ready
		}
	}

	done, err := c.access(issueAt, c.cfg.ID, op)
	if err != nil {
		c.err = err
		c.retire(issueAt)
		return
	}

	next := issueAt
	if op.Blocking {
		c.blockedOps++
		c.depReady = done
		if c.cfg.WindowSize == 1 {
			// No room to run ahead of the incomplete load: stall until the
			// data returns.
			next = done
			c.chainPend, c.ahead = 0, 0
		} else {
			c.chainPend = done
			c.ahead = c.cfg.WindowSize - 1
		}
	} else {
		// Independent reference: occupy an outstanding slot; stall only
		// when the miss window is full.
		c.win.drain(issueAt)
		if len(c.win) == c.cfg.MaxOutstanding {
			if earliest := c.win.min(); earliest > next {
				next = earliest
			}
			c.win.drain(next)
		}
		c.win.insert(done)
		// Run-ahead accounting against the pending chain load: each issued
		// op consumes one window slot beyond it; exhausting the window
		// stalls the core until the load retires.
		if c.chainPend != 0 {
			if c.chainPend <= next {
				c.chainPend, c.ahead = 0, 0
			} else if c.ahead--; c.ahead == 0 {
				next = c.chainPend
				c.chainPend = 0
			}
		}
	}
	c.engine.ScheduleHandler(next, c)
}

// retire finalizes the run at the time the last in-flight reference (or the
// final step) completes. Retirement drains the pipeline: the chain state
// resets to structural zero, so a retired core is quiescent.
func (c *Core) retire(now sim.Time) {
	end := now
	if len(c.win) > 0 && c.win.max() > end {
		end = c.win.max()
	}
	if c.chainPend > end {
		end = c.chainPend
	}
	c.win.reset()
	c.depReady, c.chainPend, c.ahead = 0, 0, 0
	c.finishedAt = end
	c.done = true
}

// Done reports whether the core retired its budget (or faulted).
func (c *Core) Done() bool { return c.done }

// Err returns the access error that aborted the run, if any.
func (c *Core) Err() error { return c.err }

// Instructions returns retired instructions.
func (c *Core) Instructions() uint64 { return c.instrs }

// MemOps returns issued memory references.
func (c *Core) MemOps() uint64 { return c.memOps }

// BlockedOps returns how many references were dependence-blocking.
func (c *Core) BlockedOps() uint64 { return c.blockedOps }

// FinishedAt returns the core's completion time.
func (c *Core) FinishedAt() sim.Time { return c.finishedAt }

// IPC returns retired instructions per cycle over the core's lifetime.
func (c *Core) IPC() float64 {
	if c.finishedAt == 0 {
		return 0
	}
	cycles := float64(c.finishedAt) / float64(c.cfg.CycleTime)
	return float64(c.instrs) / cycles
}
