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
