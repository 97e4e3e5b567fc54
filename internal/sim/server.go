package sim

// Clock supplies the current simulated time. *Engine implements it; a
// Server bound to a clock uses it to retire idle windows: no future request
// can arrive before the engine's current time (access chains are computed
// forward from the dispatching event), so windows that closed at or before
// it can be dropped without changing any grant.
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
// in-order cores, 10k+10k instructions, seeds 1–4) 53% of 8.3M Acquire
// calls take that path. Such a call sees a calendar of ~44 gaps, ~35 of
// which closed before the engine's current time and wait to be retired;
// only ~4 end after the arrival (the shallow shape). On the OoO stencil
// streams (sp/mg/lu, E-FAM and DeACT-N) a search sees ~290 gaps and ~40
// end after the arrival (the deep shape). The search therefore gallops
// back from the latest-ending gap: it costs O(log d) for d gaps ending
// after the arrival, so the shallow shape pays a few compares and the deep
// one no more than a binary search. (The test-only Resource stores the busy intervals
// instead and serves as this type's oracle.)
//
// Grants always equal the exact interval calendar's. A Server bound to a
// Clock retires, whenever an append finds the gap slice full, the prefix of
// gaps that closed at or before the clock's Now(); it grows the slice
// instead when more than half of it is still live, so each gap is appended,
// skipped and compacted away once, O(1) amortized. A server without a clock
// keeps every gap.
type Server struct {
	clock Clock
	tail  Time  // end of the last booking; everything at/after is free
	gaps  []gap // idle windows before tail: sorted, disjoint
	busy  Time
}

type gap struct{ start, end Time }

// minGapCap is the gap slice's first capacity.
const minGapCap = 16

// Bind attaches the retirement clock. The caller guarantees that no
// subsequent Acquire arrives earlier than the clock's Now() at call time.
func (s *Server) Bind(c Clock) { s.clock = c }

// Acquire reserves the server for service picoseconds starting no earlier
// than now, in the earliest idle window that fits. It returns the service
// start and completion times. When a clock is bound, now must not precede
// the clock's current time.
func (s *Server) Acquire(now, service Time) (start, done Time) {
	s.busy += service
	if service == 0 {
		return now, now
	}
	if now >= s.tail {
		// Tail fast path: the arrival is past every booking. The idle
		// stretch it skips over becomes a bookable gap.
		if now > s.tail {
			if len(s.gaps) == cap(s.gaps) {
				s.retire()
			}
			s.gaps = append(s.gaps, gap{start: s.tail, end: now})
		}
		s.tail = now + service
		return now, s.tail
	}
	// Out-of-order arrival. Gap ends are ascending (gaps are created in
	// tail order and splits keep both halves in place), so if the request
	// cannot finish inside the latest-ending gap it fits no gap at all:
	// queue straight behind the tail without touching the calendar. This
	// keeps the common "barely out of order" arrival — behind the tail but
	// past every idle window — at two compares.
	n := len(s.gaps)
	if n == 0 || now+service > s.gaps[n-1].end {
		start = s.tail
		s.tail += service
		return start, s.tail
	}
	// Find the first gap ending after the arrival; gaps closing at or
	// before it cannot host the request. gaps[n-1] ends after it, so gallop
	// back from there to bracket the answer in (lo, hi], then bisect.
	hi, step := n-1, 1
	lo := hi - step
	for lo >= 0 && s.gaps[lo].end > now {
		hi = lo
		step <<= 1
		lo = hi - step
	}
	lo = max(lo+1, 0) // gaps[lo], if it exists, ends at or before now
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.gaps[mid].end <= now {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// Take the earliest gap that fits, else queue behind the tail.
	for i := lo; i < n; i++ {
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

// retire makes room in a full gap slice for one more append and returns
// how many leading gaps it dropped: the prefix that closed at or before the
// clock's Now(). It moves the live rest to the front, or into a slice twice
// as large when more than half of it is live.
func (s *Server) retire() int {
	n := len(s.gaps)
	dead := 0
	if s.clock != nil {
		w := s.clock.Now()
		for hi := n; dead < hi; {
			mid := int(uint(dead+hi) >> 1)
			if s.gaps[mid].end <= w {
				dead = mid + 1
			} else {
				hi = mid
			}
		}
	}
	live := s.gaps[dead:]
	if 2*len(live) > n || n == 0 {
		grown := make([]gap, len(live), max(2*n, minGapCap))
		copy(grown, live)
		s.gaps = grown
	} else {
		s.gaps = s.gaps[:copy(s.gaps, live)]
	}
	return dead
}

// bookInGap splits gaps[i] around the booking [start, done).
func (s *Server) bookInGap(i int, g gap, start, done Time) {
	left := gap{start: g.start, end: start}
	right := gap{start: done, end: g.end}
	hasL := left.end > left.start
	hasR := right.end > right.start
	switch {
	case hasL && hasR:
		// An interior booking nets one extra gap. Gap i ends after the
		// arrival, which is at or after the clock, so retire cannot drop
		// it; it only shifts it down with the dropped prefix.
		if len(s.gaps) == cap(s.gaps) {
			i -= s.retire()
		}
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

// BusyTime returns the total time the server has been reserved.
// Retirement does not affect it.
func (s *Server) BusyTime() Time { return s.busy }
