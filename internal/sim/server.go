package sim

// Clock supplies the current simulated time. *Engine implements it; a
// Server bound to a clock uses it as a pruning watermark: no future request
// can arrive before the engine's current time (access chains are computed
// forward from the dispatching event), so idle windows entirely in the past
// can be retired exactly, without the over-serialization a lossy size cap
// causes.
type Clock interface {
	Now() Time
}

// Server models a serially occupied hardware resource (a DRAM bank, a
// fabric link direction, an STU port). A request occupies the server for
// its service time; overlapping requests queue. A request may start in any
// idle window at or after its arrival, not only behind the last booking:
// the simulator computes whole access chains synchronously (a page-table
// walk books a link at T, T+1.1µs, T+2.2µs…), and a scalar next-free time
// would queue every other requester behind the last of those bookings even
// though the link is idle in between, serializing the whole machine.
//
// A single tail time serves in-order arrivals in O(1); out-of-order
// arrivals (a request computed by an access chain that started earlier
// than another chain's bookings) consult a calendar of idle gaps before
// the tail. Out-of-order arrivals are common, not rare: on the
// translation-heavy mix (sssp/canl/mcf under I-FAM and DeACT-N, 4
// in-order cores) 55–58% of Acquire calls take that path. At such a call
// the calendar typically holds ~31 gaps that already closed before the
// engine's current time (retirable, not yet pruned) ahead of ~7–10 open
// ones, of which ~4 end after the arrival; the binary search below skips
// the closed prefix. (The test-only Resource stores the busy intervals
// instead and serves as this type's oracle.)
//
// A Server bound to a Clock retires gaps that closed at or before the
// engine's current time — exact pruning, since no future arrival can
// precede it. Pruning is kept off the tail fast path: it runs when the
// calendar needs room, before anything grows, O(1) amortized (each gap is
// appended, skipped and compacted away once). The backing array therefore
// stays proportional to the reachable calendar.
type Server struct {
	clock     Clock
	tail      Time  // end of the last booking; everything at/after is free
	gaps      []gap // gaps[head:] is live: sorted, disjoint, before tail
	head      int   // retired prefix length, compacted away periodically
	watermark Time
	busy      Time
	uses      uint64
}

type gap struct{ start, end Time }

// maxLiveGaps bounds the live gap calendar of a server without a bound
// clock: when exceeded, the oldest gap is forgotten (no longer bookable),
// which only over-serializes the distant past. A clock-bound server never
// forgets a gap — it prunes exactly, so its calendar holds only windows a
// future arrival can still book, and its grants equal the exact interval
// calendar's.
const maxLiveGaps = 512

// Bind attaches the pruning clock. The caller guarantees that no subsequent
// Acquire arrives earlier than the clock's Now() at call time.
func (s *Server) Bind(c Clock) { s.clock = c }

// Prune retires gaps that closed at or before w; the watermark is monotone.
// A gap straddling w stays bookable.
func (s *Server) Prune(w Time) {
	if w <= s.watermark {
		return
	}
	s.watermark = w
	for s.head < len(s.gaps) && s.gaps[s.head].end <= w {
		s.head++
	}
	// Compact once the retired prefix dominates the slice, so the backing
	// array stays proportional to the live calendar.
	if s.head >= 32 && s.head*2 >= len(s.gaps) {
		n := copy(s.gaps, s.gaps[s.head:])
		s.gaps = s.gaps[:n]
		s.head = 0
	}
}

// prune runs Prune against the bound clock, if any.
func (s *Server) prune() {
	if s.clock != nil {
		s.Prune(s.clock.Now())
	}
}

// Acquire reserves the server for service picoseconds starting no earlier
// than now, in the earliest idle window that fits. It returns the service
// start and completion times. When a clock is bound, now must not precede
// the clock's current time.
func (s *Server) Acquire(now, service Time) (start, done Time) {
	s.uses++
	s.busy += service
	if service == 0 {
		return now, now
	}
	if now >= s.tail {
		// Tail fast path: the arrival is past every booking. The idle
		// stretch it skips over becomes a bookable gap.
		if now > s.tail {
			s.pushGap(s.tail, now)
		}
		s.tail = now + service
		return now, s.tail
	}
	// Out-of-order arrival. Gap ends are ascending (gaps are created in
	// tail order and splits keep both halves in place), so if the request
	// cannot finish inside the latest-ending live gap it fits no gap at
	// all: queue straight behind the tail without touching the calendar.
	// This keeps the common "barely out of order" arrival — behind the
	// tail but past every idle window — at two compares.
	if n := len(s.gaps); n == s.head || now+service > s.gaps[n-1].end {
		start = s.tail
		s.tail += service
		return start, s.tail
	}
	// Take the earliest gap that fits, else queue behind the tail. Gaps
	// closing at or before the arrival cannot host it (their remaining
	// room ends before now+service); gap ends are sorted, so
	// binary-search past them instead of scanning — which also skips any
	// retired-but-uncompacted prefix, so no pruning is needed here.
	lo, hi := s.head, len(s.gaps)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.gaps[mid].end <= now {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for i := lo; i < len(s.gaps); i++ {
		g := s.gaps[i]
		start = now
		if g.start > start {
			start = g.start
		}
		if start+service > g.end {
			continue
		}
		done = start + service
		s.bookInGap(i, g, start, done)
		return start, done
	}
	start = s.tail
	s.tail += service
	return start, s.tail
}

// pushGap records [from, to) as idle. Gaps are created in tail order, so
// appending keeps the calendar sorted.
func (s *Server) pushGap(from, to Time) {
	if to <= s.watermark {
		return // already unreachable
	}
	s.makeRoom(len(s.gaps))
	s.gaps = append(s.gaps, gap{start: from, end: to})
}

// makeRoom readies the calendar for one more gap and returns the new index
// of gaps[pin], the gap a caller is about to split (len(gaps) pins
// nothing). It works only when the backing array is full or an unbound
// server's live calendar is at its bound: it retires what the clock
// allows, applies the unbound live bound by forgetting the oldest window
// (never the pinned one), then compacts the retired prefix away once it is
// half the slice. Append therefore grows the array only when live gaps
// fill it. Compaction (here or inside Prune) moves gaps down but keeps
// their distance from the end, which is how pin is carried across it.
func (s *Server) makeRoom(pin int) int {
	lossy := s.clock == nil && len(s.gaps)-s.head >= maxLiveGaps
	if len(s.gaps) < cap(s.gaps) && !lossy {
		return pin
	}
	fromEnd := len(s.gaps) - pin
	s.prune()
	if lossy && s.head < len(s.gaps)-fromEnd {
		s.head++
	}
	if len(s.gaps) == cap(s.gaps) && s.head*2 >= len(s.gaps) {
		n := copy(s.gaps, s.gaps[s.head:])
		s.gaps = s.gaps[:n]
		s.head = 0
	}
	return len(s.gaps) - fromEnd
}

// bookInGap splits gaps[i] around the booking [start, done).
func (s *Server) bookInGap(i int, g gap, start, done Time) {
	left := gap{start: g.start, end: start}
	right := gap{start: done, end: g.end}
	hasL := left.end > left.start
	hasR := right.end > right.start
	switch {
	case hasL && hasR:
		// An interior booking nets one extra live gap. Gap i ends after
		// this booking, so pruning cannot retire it.
		i = s.makeRoom(i)
		s.gaps = append(s.gaps, gap{})
		copy(s.gaps[i+2:], s.gaps[i+1:])
		s.gaps[i] = left
		s.gaps[i+1] = right
	case hasL:
		s.gaps[i] = left
	case hasR:
		s.gaps[i] = right
	default:
		s.gaps = append(s.gaps[:i], s.gaps[i+1:]...)
	}
}

// NextFree returns the end of the last booking — the earliest time a
// request arriving after all current bookings could begin service.
func (s *Server) NextFree() Time { return s.tail }

// BusyTime returns the total time the server has been reserved. Pruning
// does not affect it.
func (s *Server) BusyTime() Time { return s.busy }

// Uses returns the number of Acquire calls. Pruning does not affect it.
func (s *Server) Uses() uint64 { return s.uses }

// liveGaps returns the number of unretired idle windows (tests).
func (s *Server) liveGaps() int { return len(s.gaps) - s.head }

// Reset clears all reservation state, keeping the bound clock.
func (s *Server) Reset() { *s = Server{clock: s.clock} }
