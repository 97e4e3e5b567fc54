package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(300, func(Time) { got = append(got, 3) })
	e.Schedule(100, func(Time) { got = append(got, 1) })
	e.Schedule(200, func(Time) { got = append(got, 2) })
	e.Run(0)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if e.Now() != 300 {
		t.Fatalf("final time = %d, want 300", e.Now())
	}
}

func TestEngineTieBreaksByInsertionOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(42, func(Time) { got = append(got, i) })
	}
	e.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break violated at %d: %v", i, got)
		}
	}
}

func TestEngineSchedulePastClampsToNow(t *testing.T) {
	e := NewEngine()
	var fired Time
	e.Schedule(1000, func(now Time) {
		e.Schedule(5, func(now Time) { fired = now })
	})
	e.Run(0)
	if fired != 1000 {
		t.Fatalf("past event fired at %d, want clamp to 1000", fired)
	}
}

func TestEngineAfter(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Schedule(100, func(Time) {
		e.After(50, func(now Time) { at = now })
	})
	e.Run(0)
	if at != 150 {
		t.Fatalf("After fired at %d, want 150", at)
	}
}

func TestEngineHorizon(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(Time(i*100), func(Time) { count++ })
	}
	final := e.Run(450)
	if count != 4 {
		t.Fatalf("events within horizon = %d, want 4", count)
	}
	if final != 450 {
		t.Fatalf("final time = %d, want horizon 450", final)
	}
}

// TestEngineHorizonKeepsFutureEvent is the regression test for the horizon
// event-loss bug: the first event past the horizon used to be popped and
// silently discarded, so re-running with a larger horizon never fired it.
func TestEngineHorizonKeepsFutureEvent(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{100, 200, 300} {
		at := at
		e.Schedule(at, func(now Time) { fired = append(fired, now) })
	}
	if final := e.Run(150); final != 150 {
		t.Fatalf("first run ended at %d, want 150", final)
	}
	if len(fired) != 1 || fired[0] != 100 {
		t.Fatalf("first run fired %v, want [100]", fired)
	}
	if e.Pending() != 2 {
		t.Fatalf("pending after horizon = %d, want 2 (event at 200 must survive)", e.Pending())
	}
	if final := e.Run(250); final != 250 {
		t.Fatalf("second run ended at %d, want 250", final)
	}
	if len(fired) != 2 || fired[1] != 200 {
		t.Fatalf("extended horizon fired %v, want [100 200]", fired)
	}
	if final := e.Run(0); final != 300 {
		t.Fatalf("unbounded run ended at %d, want 300", final)
	}
	if len(fired) != 3 || fired[2] != 300 {
		t.Fatalf("final run fired %v, want all three events", fired)
	}
}

// TestEngineHorizonDoesNotRewindClock: a horizon earlier than the current
// clock must not move time backwards.
func TestEngineHorizonDoesNotRewindClock(t *testing.T) {
	e := NewEngine()
	e.Schedule(1000, func(Time) {})
	e.Schedule(2000, func(Time) {})
	e.Run(1500)
	if e.Now() != 1500 {
		t.Fatalf("now = %d, want 1500", e.Now())
	}
	if final := e.Run(100); final != 1500 {
		t.Fatalf("smaller horizon rewound the clock to %d", final)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recurse func(now Time)
	recurse = func(now Time) {
		depth++
		if depth < 100 {
			e.After(1, recurse)
		}
	}
	e.Schedule(0, recurse)
	e.Run(0)
	if depth != 100 {
		t.Fatalf("nested depth = %d, want 100", depth)
	}
	if e.Now() != 99 {
		t.Fatalf("final time = %d, want 99", e.Now())
	}
}

// recorder is a Handler that logs its id into a shared slice.
type recorder struct {
	id  int
	out *[]int
}

func (r *recorder) Handle(Time) { *r.out = append(*r.out, r.id) }

// TestEngineSameTimestampFIFOMixedAPIs: events at one timestamp fire in
// scheduling order regardless of which API (closure or handler) enqueued
// them.
func TestEngineSameTimestampFIFOMixedAPIs(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 20; i++ {
		i := i
		if i%2 == 0 {
			e.ScheduleHandler(42, &recorder{id: i, out: &got})
		} else {
			e.Schedule(42, func(Time) { got = append(got, i) })
		}
	}
	e.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO tie-break violated at %d: %v", i, got)
		}
	}
}

// TestEngineScheduleHandlerClampsPast mirrors the closure-path clamp test
// for the handler path.
func TestEngineScheduleHandlerClampsPast(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Schedule(1000, func(Time) {
		e.ScheduleHandler(5, handlerFunc(func(now Time) { at = now }))
	})
	e.Run(0)
	if at != 1000 {
		t.Fatalf("past handler fired at %d, want clamp to 1000", at)
	}
}

// TestEngineManyEventsOrdered shuffles a large schedule through the d-ary
// heap and checks global dispatch order (timestamp, then insertion seq).
func TestEngineManyEventsOrdered(t *testing.T) {
	e := NewEngine()
	const n = 5000
	var got []Time
	// A deterministic scatter of timestamps with plenty of collisions.
	for i := 0; i < n; i++ {
		at := Time((i * 7919) % 257)
		e.Schedule(at, func(now Time) { got = append(got, now) })
	}
	e.Run(0)
	if len(got) != n {
		t.Fatalf("fired %d events, want %d", len(got), n)
	}
	for i := 1; i < n; i++ {
		if got[i] < got[i-1] {
			t.Fatalf("out of order at %d: %d after %d", i, got[i], got[i-1])
		}
	}
	if e.Fired() != n {
		t.Fatalf("Fired() = %d, want %d", e.Fired(), n)
	}
}

func TestResourceSerializes(t *testing.T) {
	var r Resource
	s1, d1 := r.Acquire(100, 50)
	if s1 != 100 || d1 != 150 {
		t.Fatalf("first acquire = (%d,%d), want (100,150)", s1, d1)
	}
	// Second request arrives while busy: queues.
	s2, d2 := r.Acquire(120, 30)
	if s2 != 150 || d2 != 180 {
		t.Fatalf("second acquire = (%d,%d), want (150,180)", s2, d2)
	}
	// Third arrives after idle gap: starts immediately.
	s3, d3 := r.Acquire(500, 10)
	if s3 != 500 || d3 != 510 {
		t.Fatalf("third acquire = (%d,%d), want (500,510)", s3, d3)
	}
	if r.BusyTime() != 90 {
		t.Fatalf("busy = %d, want 90", r.BusyTime())
	}
	if r.Uses() != 3 {
		t.Fatalf("uses = %d, want 3", r.Uses())
	}
}

func TestResourceReset(t *testing.T) {
	var r Resource
	r.Acquire(10, 10)
	r.Reset()
	if r.NextFree() != 0 || r.BusyTime() != 0 || r.Uses() != 0 {
		t.Fatal("reset did not clear state")
	}
}

// Property: service start is never before arrival, completion = start +
// service, and no two granted intervals overlap (the resource is serially
// occupied).
func TestResourceInvariantsQuick(t *testing.T) {
	type iv struct{ s, e Time }
	f := func(arrivals []uint16, services []uint8) bool {
		var r Resource
		var now Time
		var granted []iv
		n := len(arrivals)
		if len(services) < n {
			n = len(services)
		}
		for i := 0; i < n; i++ {
			now += Time(arrivals[i])
			svc := Time(services[i])
			start, done := r.Acquire(now, svc)
			if start < now || done != start+svc {
				return false
			}
			if svc == 0 {
				continue
			}
			for _, g := range granted {
				if start < g.e && g.s < done {
					return false // overlap
				}
			}
			granted = append(granted, iv{start, done})
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestResourceGapFilling: a request arriving in an idle gap between two
// future bookings is served in the gap, not behind them.
func TestResourceGapFilling(t *testing.T) {
	var r Resource
	r.Acquire(0, 10)    // [0,10)
	r.Acquire(1000, 10) // [1000,1010)
	start, done := r.Acquire(20, 10)
	if start != 20 || done != 30 {
		t.Fatalf("gap request served at (%d,%d), want (20,30)", start, done)
	}
	// A request too big for the gap goes after everything.
	start, _ = r.Acquire(20, 2000)
	if start != 1010 {
		t.Fatalf("oversized request started at %d, want 1010", start)
	}
}

// fakeClock is a settable Clock for pruning tests.
type fakeClock struct{ now Time }

func (c *fakeClock) Now() Time { return c.now }

// TestResourceCalendarBoundedWithClock: a clock-bound resource retires past
// bookings, so the live calendar stays O(outstanding window) even across
// arbitrarily long runs.
func TestResourceCalendarBounded(t *testing.T) {
	var r Resource
	clk := &fakeClock{}
	r.Bind(clk)
	for i := 0; i < 10000; i++ {
		// The engine trails the arrival by a few bookings, as it does in
		// real runs where chains compute a little ahead of dispatch time.
		if i > 5 {
			clk.now = Time((i - 5) * 100)
		}
		r.Acquire(Time(i*100), 1)
	}
	// Pruning is amortized (every 64th Acquire consults the clock), so the
	// live window is the trailing span plus at most one amortization period.
	if live := r.live(); live > 128 {
		t.Fatalf("live calendar grew to %d intervals", live)
	}
	if cap(r.intervals) > 1024 {
		t.Fatalf("backing array grew to %d despite compaction", cap(r.intervals))
	}
	if r.Uses() != 10000 {
		t.Fatalf("uses = %d", r.Uses())
	}
}

// TestResourcePruneRetiresOnlyFullyPast: the watermark retires intervals
// that end at or before it; an interval straddling the watermark survives.
func TestResourcePruneRetiresOnlyFullyPast(t *testing.T) {
	var r Resource
	r.Acquire(0, 10)   // [0,10) — fully past after Prune(50)
	r.Acquire(40, 20)  // [40,60) — straddles watermark 50
	r.Acquire(100, 10) // [100,110) — future
	r.Prune(50)
	if live := r.live(); live != 2 {
		t.Fatalf("live = %d, want 2 (straddling interval must survive)", live)
	}
	// The straddling booking still delays a request arriving inside it.
	start, _ := r.Acquire(50, 5)
	if start != 60 {
		t.Fatalf("request inside straddling interval started at %d, want 60", start)
	}
	// A monotone-violating (earlier) watermark is a no-op.
	r.Prune(10)
	if r.watermark != 50 {
		t.Fatalf("watermark regressed to %d", r.watermark)
	}
}

// TestResourceGapBookingAcrossWatermark: an idle gap that straddles the
// watermark stays bookable for arrivals at or after the watermark.
func TestResourceGapBookingAcrossWatermark(t *testing.T) {
	var r Resource
	r.Acquire(0, 10)    // [0,10)
	r.Acquire(1000, 10) // [1000,1010); gap [10,1000)
	r.Prune(500)        // [0,10) retires; the gap now straddles the watermark
	start, done := r.Acquire(500, 100)
	if start != 500 || done != 600 {
		t.Fatalf("gap booking across watermark = (%d,%d), want (500,600)", start, done)
	}
}

// TestResourceCountersSurvivePruning: BusyTime and Uses are cumulative and
// unaffected by calendar retirement.
func TestResourceCountersSurvivePruning(t *testing.T) {
	var r Resource
	r.Acquire(0, 30)
	r.Acquire(100, 70)
	busy, uses := r.BusyTime(), r.Uses()
	r.Prune(1000)
	if r.live() != 0 {
		t.Fatalf("live = %d, want 0", r.live())
	}
	if r.BusyTime() != busy || r.Uses() != uses {
		t.Fatalf("counters changed by pruning: busy %d→%d uses %d→%d", busy, r.BusyTime(), uses, r.Uses())
	}
	if r.NextFree() != 1000 {
		t.Fatalf("NextFree after full retirement = %d, want watermark 1000", r.NextFree())
	}
}

// contentionSequence drives a randomized arrival pattern of the given
// length against several calendar implementations at once: a pruned
// Resource, an unpruned Resource (the oracle), and a clock-bound Server,
// which it returns. The engine time trails the arrival front the way real
// event dispatch does, and arrivals jitter backward within the trailing
// window to exercise out-of-order gap booking across the watermark
// boundary.
func contentionSequence(t *testing.T, seed int64, steps int) *Server {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var oracle, pruned Resource
	var srv Server
	clk := &fakeClock{}
	pruned.Bind(clk)
	srv.Bind(clk)
	var front Time // the farthest arrival seen; the clock trails it
	maxLive := 0   // the most gaps ever ending after the clock at once
	for i := 0; i < steps; i++ {
		front += Time(rng.Intn(200))
		// Arrivals land anywhere between the clock and the front (chains
		// started at earlier events finish their bookings late).
		span := front - clk.now
		now := clk.now
		if span > 0 {
			now += Time(rng.Int63n(int64(span) + 1))
		}
		svc := Time(rng.Intn(100))
		os, od := oracle.Acquire(now, svc)
		ps, pd := pruned.Acquire(now, svc)
		ss, sd := srv.Acquire(now, svc)
		if os != ps || od != pd {
			t.Fatalf("seed %d step %d: pruned (%d,%d) != oracle (%d,%d) for Acquire(%d,%d)",
				seed, i, ps, pd, os, od, now, svc)
		}
		if os != ss || od != sd {
			t.Fatalf("seed %d step %d: server (%d,%d) != oracle (%d,%d) for Acquire(%d,%d)",
				seed, i, ss, sd, os, od, now, svc)
		}
		// Advance the clock to trail the front by a bounded window, as the
		// engine's dispatch time trails in-flight chains.
		if front > 500 && clk.now < front-500 {
			clk.now = front - 500
		}
		live := 0
		for _, g := range srv.gaps {
			if g.end > clk.now {
				live++
			}
		}
		maxLive = max(maxLive, live)
	}
	if oracle.BusyTime() != pruned.BusyTime() || oracle.Uses() != pruned.Uses() {
		t.Fatalf("seed %d: pruned counters diverged", seed)
	}
	if oracle.BusyTime() != srv.BusyTime() {
		t.Fatalf("seed %d: server busy time diverged", seed)
	}
	// Retirement is amortized (it runs when a calendar needs room), so live
	// state may exceed the trailing window between prunes but stays small.
	if live := pruned.live(); live > 1024 {
		t.Fatalf("seed %d: pruned calendar grew to %d live intervals", seed, live)
	}
	// A full slice of n gaps doubles only when more than n/2 of them end
	// after the clock, so its capacity stays below four times the most
	// gaps ever live at once, or at the first capacity.
	if c := cap(srv.gaps); c > max(minGapCap, 4*maxLive) || c > 1024 {
		t.Fatalf("seed %d: gap array grew to capacity %d (len %d, at most %d live)", seed, c, len(srv.gaps), maxLive)
	}
	return &srv
}

// TestContentionImplementationsAgree is the fuzz-style cross-check: pruning
// must be invisible (watermark ≤ every future arrival ⇒ identical grants),
// and the batched Server must be an exact re-representation of the interval
// calendar.
func TestContentionImplementationsAgree(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		contentionSequence(t, seed, 5000)
	}
}

// TestServerGapArrayStaysBounded is the regression test for unbounded gap
// growth over a long run. contentionSequence holds every seed to the
// retirement rule (capacity below four times the most gaps ever live);
// this run also pins the absolute size. A gap is live while it ends after
// the clock, and gaps are disjoint and each followed by a booking of at
// least 1ps, so at most (tail − clock)/2 + 1 are live. The clock trails
// the arrival front by under 700ps, but the tail can run past the front by
// any queue of bookings, so the sequence alone bounds neither: the figure
// is this seed's. At ~50% utilisation the queue stays short; the run peaks
// at 7 live gaps and capacity 16, and 32 allows one doubling more.
func TestServerGapArrayStaysBounded(t *testing.T) {
	steps := 200_000
	if testing.Short() {
		steps = 50_000
	}
	srv := contentionSequence(t, 99, steps)
	if c := cap(srv.gaps); c > 32 {
		t.Fatalf("gap array grew to capacity %d (len %d) over %d steps", c, len(srv.gaps), steps)
	}
}

func TestTimeUnits(t *testing.T) {
	if NS(1) != 1000 || US(1) != 1000*1000 {
		t.Fatal("unit conversion wrong")
	}
	if Nanosecond != 1000*Picosecond || Microsecond != 1000*Nanosecond || Millisecond != 1000*Microsecond {
		t.Fatal("unit constants wrong")
	}
}
