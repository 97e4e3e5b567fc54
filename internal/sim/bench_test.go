package sim

import "testing"

// stepper is a self-rescheduling Handler, the shape cpu.Core drives the
// engine with.
type stepper struct {
	e     *Engine
	count int
	limit int
}

func (s *stepper) Handle(now Time) {
	s.count++
	if s.count < s.limit {
		s.e.ScheduleHandler(now+1, s)
	}
}

// BenchmarkEngine measures the per-event cost of the scheduler itself with
// a self-rescheduling chain. allocs/op is the headline: the handler path
// must be allocation-free in steady state; the closure path pays one
// closure per event (the caller's closure, not the engine's).
func BenchmarkEngine(b *testing.B) {
	b.Run("handler", func(b *testing.B) {
		e := NewEngine()
		s := &stepper{e: e, limit: b.N}
		b.ReportAllocs()
		b.ResetTimer()
		e.ScheduleHandler(0, s)
		e.Run(0)
	})
	b.Run("closure", func(b *testing.B) {
		e := NewEngine()
		var fn func(now Time)
		count := 0
		fn = func(now Time) {
			count++
			if count < b.N {
				e.After(1, fn)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		e.Schedule(0, fn)
		e.Run(0)
	})
}

// BenchmarkServerAcquire measures the out-of-order path of Server.Acquire
// in steady state. One op is two calls: an in-order arrival 100ps after the
// previous one (a 10ps booking that leaves a 90ps gap behind the tail) and
// an out-of-order 1ps arrival that splits the gap `back` arrivals earlier,
// with the clock trailing a further five arrivals behind. Each split leaves
// two gaps, so the arrival finds 2·back−2 gaps ending after it: 4 for
// "shallow" (back 3), the shape of the translation-heavy mix, and 40 for
// "deep" (back 21), the shape of the OoO stencil streams. allocs/op must be zero: the
// gap slice stops growing once retirement keeps up with the clock.
func BenchmarkServerAcquire(b *testing.B) {
	run := func(b *testing.B, back Time) {
		clk := &fakeClock{}
		var s Server
		s.Bind(clk)
		b.ReportAllocs()
		b.ResetTimer()
		for i := Time(1); i <= Time(b.N); i++ {
			if i > back+5 {
				clk.now = (i - back - 5) * 100
			}
			s.Acquire(i*100, 10)
			if i > back {
				s.Acquire((i-back)*100+50, 1)
			}
		}
	}
	b.Run("shallow", func(b *testing.B) { run(b, 3) })
	b.Run("deep", func(b *testing.B) { run(b, 21) })
}
