package cpu

import (
	"errors"
	"math/rand/v2"
	"slices"
	"testing"

	"deact/internal/sim"
	"deact/internal/workload"
)

func testGen(t *testing.T, chaseProb float64) *workload.Generator {
	t.Helper()
	p := workload.Profile{
		Name: "synthetic", Suite: "test",
		FootprintPages: 64, MemPer1000: 500, ChaseProb: chaseProb,
	}
	g, err := workload.NewGenerator(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// cfg is an in-order core: a one-entry scheduling window.
func cfg(budget uint64) Config {
	return Config{CycleTime: 500, IssueWidth: 2, MaxOutstanding: 32, Instructions: budget, WindowSize: 1}
}

func TestConfigValidate(t *testing.T) {
	if err := cfg(100).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{CycleTime: 0, IssueWidth: 1, MaxOutstanding: 1, Instructions: 1, WindowSize: 1},
		{CycleTime: 1, IssueWidth: 0, MaxOutstanding: 1, Instructions: 1, WindowSize: 1},
		{CycleTime: 1, IssueWidth: 1, MaxOutstanding: 0, Instructions: 1, WindowSize: 1},
		{CycleTime: 1, IssueWidth: 1, MaxOutstanding: 1, Instructions: 0, WindowSize: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := New(cfg(1), nil, nil); err == nil {
		t.Fatal("nil deps accepted")
	}
}

func TestCoreRetiresBudget(t *testing.T) {
	e := sim.NewEngine()
	fixed := func(now sim.Time, id int, op workload.Op) (sim.Time, error) {
		return now + sim.NS(10), nil
	}
	c, err := New(cfg(10000), testGen(t, 0), fixed)
	if err != nil {
		t.Fatal(err)
	}
	c.Start(e)
	e.Run(0)
	if !c.Done() || c.Err() != nil {
		t.Fatalf("core not done: err=%v", c.Err())
	}
	if c.Instructions() < 10000 {
		t.Fatalf("retired %d instructions, want ≥ budget", c.Instructions())
	}
	if c.IPC() <= 0 || c.IPC() > 2 {
		t.Fatalf("IPC %v outside (0,2]", c.IPC())
	}
	if c.MemOps() == 0 || c.FinishedAt() == 0 {
		t.Fatal("counters missing")
	}
}

func TestBlockingSerializesLatency(t *testing.T) {
	// Same latency per access; all-blocking stream must finish much later
	// than all-independent stream.
	run := func(chase float64) sim.Time {
		e := sim.NewEngine()
		acc := func(now sim.Time, id int, op workload.Op) (sim.Time, error) {
			return now + sim.NS(500), nil
		}
		c, _ := New(cfg(20000), testGen(t, chase), acc)
		c.Start(e)
		e.Run(0)
		return c.FinishedAt()
	}
	blocking := run(1.0)
	overlapped := run(0.0)
	if blocking < 5*overlapped {
		t.Fatalf("blocking=%v overlapped=%v — dependence not serializing", blocking, overlapped)
	}
}

func TestWindowLimitStalls(t *testing.T) {
	// With a 1-entry window, even independent accesses serialize.
	run := func(window int) sim.Time {
		e := sim.NewEngine()
		acc := func(now sim.Time, id int, op workload.Op) (sim.Time, error) {
			return now + sim.NS(1000), nil
		}
		c := cfg(5000)
		c.MaxOutstanding = window
		core, _ := New(c, testGen(t, 0), acc)
		core.Start(e)
		e.Run(0)
		return core.FinishedAt()
	}
	narrow := run(1)
	wide := run(32)
	if narrow < 3*wide {
		t.Fatalf("narrow=%v wide=%v — window limit not enforced", narrow, wide)
	}
}

func TestAccessErrorAbortsRun(t *testing.T) {
	e := sim.NewEngine()
	calls := 0
	acc := func(now sim.Time, id int, op workload.Op) (sim.Time, error) {
		calls++
		if calls == 3 {
			return 0, errors.New("access denied by STU")
		}
		return now + 1, nil
	}
	c, _ := New(cfg(1_000_000), testGen(t, 0), acc)
	c.Start(e)
	e.Run(0)
	if c.Err() == nil {
		t.Fatal("error swallowed")
	}
	if !c.Done() {
		t.Fatal("core kept running after error")
	}
	if calls != 3 {
		t.Fatalf("calls after error = %d", calls)
	}
}

func TestBlockedOpsCounted(t *testing.T) {
	e := sim.NewEngine()
	acc := func(now sim.Time, id int, op workload.Op) (sim.Time, error) { return now, nil }
	c, _ := New(cfg(5000), testGen(t, 0.5), acc)
	c.Start(e)
	e.Run(0)
	if c.BlockedOps() == 0 || c.BlockedOps() >= c.MemOps() {
		t.Fatalf("blocked=%d of %d", c.BlockedOps(), c.MemOps())
	}
}

func TestSetBudgetResumesAfterRetirement(t *testing.T) {
	e := sim.NewEngine()
	acc := func(now sim.Time, id int, op workload.Op) (sim.Time, error) {
		return now + sim.NS(5), nil
	}
	c, _ := New(cfg(1000), testGen(t, 0), acc)
	c.Start(e)
	e.Run(0)
	if !c.Done() {
		t.Fatal("first phase did not retire")
	}
	first := c.FinishedAt()
	c.SetBudget(2000)
	if c.Done() {
		t.Fatal("SetBudget did not clear done")
	}
	c.Start(e)
	e.Run(0)
	if !c.Done() || c.Instructions() < 2000 {
		t.Fatalf("second phase incomplete: %d instructions", c.Instructions())
	}
	if c.FinishedAt() <= first {
		t.Fatal("time did not advance in second phase")
	}
}

// TestWindowFillDrainRetireEdges drives the sorted outstanding window
// through its edge cases directly: fill to capacity, stall on the earliest
// slot, drain completed suffixes, and retire at the latest in-flight
// completion.
func TestWindowFillDrainRetireEdges(t *testing.T) {
	w := newWindow(4)
	// Out-of-order completions must come back min-first.
	for _, v := range []sim.Time{40, 10, 30, 20} {
		w.insert(v)
	}
	if len(w) != 4 || w.min() != 10 {
		t.Fatalf("after fill: n=%d min=%d, want 4/10", len(w), w.min())
	}
	// Drain removes exactly the completed entries.
	w.drain(20)
	if len(w) != 2 || w.min() != 30 {
		t.Fatalf("after drain(20): n=%d min=%d, want 2/30", len(w), w.min())
	}
	// Refill to capacity after a drain.
	w.insert(5) // lands below the current min: must become the new minimum
	if w.min() != 5 {
		t.Fatalf("min after low insert = %d, want 5", w.min())
	}
	w.insert(35)
	if len(w) != 4 {
		t.Fatalf("n = %d, want 4 (full)", len(w))
	}
	// Duplicate timestamps drain together.
	w.drain(35)
	if len(w) != 1 || w.min() != 40 {
		t.Fatalf("after drain(35): n=%d min=%d, want 1/40", len(w), w.min())
	}
	w.reset()
	if len(w) != 0 {
		t.Fatal("reset kept entries")
	}
}

// TestWindowMatchesSortedMultiset is the window's randomized oracle: a
// naive sorted multiset follows the same insert/drain/reset stream, and
// after every operation the window must hold exactly its elements, with
// the same length, minimum and maximum. Capacities run from 1 to 64 and
// timestamps come from a narrow range, so duplicates are common; inserts
// follow the core's protocol of never exceeding the capacity.
func TestWindowMatchesSortedMultiset(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 4))
	for capacity := 1; capacity <= 64; capacity++ {
		w := newWindow(capacity)
		var ref []sim.Time // ascending
		for step := 0; step < 2000; step++ {
			switch r := rng.IntN(100); {
			case r < 55 && len(ref) < capacity:
				v := sim.Time(rng.IntN(4 * capacity))
				w.insert(v)
				i, _ := slices.BinarySearch(ref, v)
				ref = slices.Insert(ref, i, v)
			case r < 99:
				now := sim.Time(rng.IntN(4 * capacity))
				w.drain(now)
				ref = slices.DeleteFunc(ref, func(x sim.Time) bool { return x <= now })
			default:
				w.reset()
				ref = ref[:0]
			}
			if len(w) != len(ref) {
				t.Fatalf("cap %d step %d: len %d, oracle %d", capacity, step, len(w), len(ref))
			}
			got := slices.Clone(w)
			slices.Reverse(got)
			if !slices.Equal(got, ref) {
				t.Fatalf("cap %d step %d: window %v, oracle %v", capacity, step, []sim.Time(w), ref)
			}
			if len(ref) > 0 && (w.min() != ref[0] || w.max() != ref[len(ref)-1]) {
				t.Fatalf("cap %d step %d: min/max %d/%d, oracle %d/%d",
					capacity, step, w.min(), w.max(), ref[0], ref[len(ref)-1])
			}
		}
	}
}

// TestHugeOutstandingWindowRuns: MaxOutstanding is unbounded above, so the
// window must not preallocate it. A 2^40-entry window used to be one
// multi-terabyte allocation at New, which is a fatal runtime error. Every
// access here outlives the run, so the window also grows past its
// preallocated capacity.
func TestHugeOutstandingWindowRuns(t *testing.T) {
	c := cfg(500)
	c.MaxOutstanding = 1 << 40
	const lat = sim.Time(1_000_000)
	var lastDone sim.Time
	core, err := New(c, testGen(t, 0), func(now sim.Time, id int, op workload.Op) (sim.Time, error) {
		lastDone = now + lat
		return lastDone, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	core.Start(e)
	e.Run(0)
	if !core.Done() || core.Instructions() < 500 || core.MemOps() <= maxWindowPrealloc {
		t.Fatalf("core retired %d instructions, %d references", core.Instructions(), core.MemOps())
	}
	if core.FinishedAt() != lastDone {
		t.Fatalf("FinishedAt %d, want the last completion %d", core.FinishedAt(), lastDone)
	}
}

// TestRetireWaitsForOutstanding: a core must not report a finish time
// earlier than its last in-flight independent reference.
func TestRetireWaitsForOutstanding(t *testing.T) {
	e := sim.NewEngine()
	const lat = sim.Time(1_000_000) // 1µs per access, far beyond the step gaps
	var lastDone sim.Time
	acc := func(now sim.Time, id int, op workload.Op) (sim.Time, error) {
		lastDone = now + lat
		return lastDone, nil
	}
	c, _ := New(cfg(100), testGen(t, 0), acc)
	c.Start(e)
	e.Run(0)
	if !c.Done() {
		t.Fatal("core did not retire")
	}
	if c.FinishedAt() < lastDone {
		t.Fatalf("FinishedAt %d before last outstanding completion %d", c.FinishedAt(), lastDone)
	}
}

// TestCoreDeterministicAcrossRuns: two cores with identical config and seed
// produce identical counters and finish times.
func TestCoreDeterministicAcrossRuns(t *testing.T) {
	run := func() *Core {
		e := sim.NewEngine()
		acc := func(now sim.Time, id int, op workload.Op) (sim.Time, error) {
			return now + sim.Time(op.Addr%977), nil
		}
		c, _ := New(cfg(20000), testGen(t, 0.3), acc)
		c.Start(e)
		e.Run(0)
		return c
	}
	a, b := run(), run()
	if a.Instructions() != b.Instructions() || a.MemOps() != b.MemOps() ||
		a.BlockedOps() != b.BlockedOps() || a.FinishedAt() != b.FinishedAt() {
		t.Fatalf("divergent runs: %d/%d/%d/%d vs %d/%d/%d/%d",
			a.Instructions(), a.MemOps(), a.BlockedOps(), a.FinishedAt(),
			b.Instructions(), b.MemOps(), b.BlockedOps(), b.FinishedAt())
	}
}

func TestSetBudgetKeepsAbortError(t *testing.T) {
	e := sim.NewEngine()
	acc := func(now sim.Time, id int, op workload.Op) (sim.Time, error) {
		return 0, errors.New("denied")
	}
	c, _ := New(cfg(100), testGen(t, 0), acc)
	c.Start(e)
	e.Run(0)
	if c.Err() == nil {
		t.Fatal("error lost")
	}
	c.SetBudget(200)
	if !c.Done() {
		t.Fatal("SetBudget resurrected a faulted core")
	}
}
