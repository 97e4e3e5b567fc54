package sim

import "sort"

// Resource is the reference implementation of Server's contract, kept as
// the oracle TestContentionImplementationsAgree compares Server against. It
// models a serially occupied resource: a request occupies it for its
// service time; overlapping requests queue.
//
// Unlike the classic "next free time" scalar, the resource books *busy
// intervals* and lets a request start in any idle gap at or after its
// arrival. This matters because the surrounding simulator computes whole
// access chains synchronously: a page-table walk reserves a link at T,
// T+1.1µs, T+2.2µs…, and with a scalar next-free-time every other
// requester would queue behind the *last* of those reservations even
// though the link is idle in between — which silently serializes the whole
// machine.
//
// The calendar is kept sorted, non-overlapping and adjacency-merged at all
// times, so Acquire only needs a binary search for the arrival position, a
// short forward walk to the first fitting gap, and an O(1) merge with the
// (at most two) adjacent intervals — the common tail-append case touches
// nothing else.
//
// Bind attaches a Clock whose Now() lower-bounds every future arrival;
// Acquire then retires intervals that ended at or before that watermark.
// Retirement is exact (only unreachable calendar state is dropped) and O(1)
// amortized: each interval is appended once, skipped once, and compacted
// away once. An unbound Resource keeps its whole calendar.
type Resource struct {
	clock     Clock
	intervals []interval // intervals[head:] is live: sorted, non-overlapping
	head      int        // retired prefix length, compacted away periodically
	watermark Time       // highest Prune bound seen
	busy      Time
	uses      uint64
}

type interval struct {
	start, end Time
}

// Bind attaches the pruning clock. The caller guarantees that no subsequent
// Acquire arrives earlier than the clock's Now() at call time (true for the
// engine: event chains only run forward from the current event).
func (r *Resource) Bind(c Clock) { r.clock = c }

// Prune retires intervals that end at or before w. The watermark is
// monotone: an earlier w than previously seen is a no-op. Gaps straddling
// the watermark stay bookable (only *fully* past intervals are dropped).
func (r *Resource) Prune(w Time) {
	if w <= r.watermark {
		return
	}
	r.watermark = w
	for r.head < len(r.intervals) && r.intervals[r.head].end <= w {
		r.head++
	}
	// Compact once the retired prefix dominates the slice, so the backing
	// array stays proportional to the live calendar.
	if r.head >= 32 && r.head*2 >= len(r.intervals) {
		n := copy(r.intervals, r.intervals[r.head:])
		r.intervals = r.intervals[:n]
		r.head = 0
	}
}

// Acquire reserves the resource for service picoseconds starting no earlier
// than now, in the earliest idle gap that fits. It returns the time at
// which service starts and the time at which it completes. When a clock is
// bound, now must not precede the clock's current time.
func (r *Resource) Acquire(now, service Time) (start, done Time) {
	// Amortized retirement: consulting the clock every call costs more
	// than it saves, and the binary search skips retired intervals anyway;
	// a periodic prune keeps the backing array bounded.
	if r.clock != nil && r.uses&63 == 0 {
		r.Prune(r.clock.Now())
	}
	r.uses++
	r.busy += service
	if service == 0 {
		return now, now
	}
	start = now
	n := len(r.intervals)

	// Fast path: arrival at or after the last booking — append or extend.
	if n == r.head || start >= r.intervals[n-1].end {
		done = start + service
		if n > r.head && r.intervals[n-1].end == start {
			r.intervals[n-1].end = done
		} else {
			r.intervals = append(r.intervals, interval{start: start, end: done})
		}
		return start, done
	}

	// Intervals ending at or before the arrival can neither delay the
	// request nor host it; binary-search past them.
	i := r.head + sort.Search(n-r.head, func(j int) bool { return r.intervals[r.head+j].end > start })
	for ; i < n; i++ {
		iv := r.intervals[i]
		if start+service <= iv.start {
			break
		}
		if iv.end > start {
			start = iv.end
		}
	}
	done = start + service

	// Insert [start, done) before index i, fusing with the neighbours when
	// exactly adjacent (the calendar is already merged, so overlap is
	// impossible: start ≥ intervals[i-1].end and done ≤ intervals[i].start).
	prevTouch := i > r.head && r.intervals[i-1].end == start
	nextTouch := i < n && r.intervals[i].start == done
	switch {
	case prevTouch && nextTouch:
		r.intervals[i-1].end = r.intervals[i].end
		r.intervals = append(r.intervals[:i], r.intervals[i+1:]...)
	case prevTouch:
		r.intervals[i-1].end = done
	case nextTouch:
		r.intervals[i].start = start
	default:
		r.intervals = append(r.intervals, interval{})
		copy(r.intervals[i+1:], r.intervals[i:])
		r.intervals[i] = interval{start: start, end: done}
	}
	return start, done
}

// NextFree returns the end of the last booked interval — the earliest time
// a request arriving after all current bookings could begin service. With
// every booking retired it returns the pruning watermark (no arrival can
// precede it).
func (r *Resource) NextFree() Time {
	if len(r.intervals) == r.head {
		return r.watermark
	}
	return r.intervals[len(r.intervals)-1].end
}

// BusyTime returns the total time the resource has been reserved. Pruning
// does not affect it.
func (r *Resource) BusyTime() Time { return r.busy }

// Uses returns the number of Acquire calls. Pruning does not affect it.
func (r *Resource) Uses() uint64 { return r.uses }

// live returns the number of unretired calendar intervals (tests).
func (r *Resource) live() int { return len(r.intervals) - r.head }

// Reset clears all reservation state, keeping the bound clock.
func (r *Resource) Reset() { *r = Resource{clock: r.clock} }
