package cache

import (
	"fmt"
	"math/bits"

	"deact/internal/arena"
)

// HitLevel identifies where in the hierarchy an access was served.
type HitLevel int

// Hit levels, in lookup order. Memory means the access missed all caches.
const (
	L1 HitLevel = iota + 1
	L2
	L3
	Memory
)

// String implements fmt.Stringer.
func (h HitLevel) String() string {
	switch h {
	case L1:
		return "L1"
	case L2:
		return "L2"
	case L3:
		return "L3"
	case Memory:
		return "memory"
	default:
		return fmt.Sprintf("HitLevel(%d)", int(h))
	}
}

// HierarchyConfig sizes the three levels (Table II defaults live in the
// core package).
type HierarchyConfig struct {
	Cores  int
	L1Size uint64
	L1Ways int
	L2Size uint64
	L2Ways int
	L3Size uint64
	L3Ways int
}

// Validate checks the core count and every level's geometry.
func (c HierarchyConfig) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("cache: cores must be positive")
	}
	for _, l := range []struct {
		name string
		size uint64
		ways int
	}{{"l1", c.L1Size, c.L1Ways}, {"l2", c.L2Size, c.L2Ways}, {"l3", c.L3Size, c.L3Ways}} {
		if _, err := checkGeometry(l.name, l.size, l.ways); err != nil {
			return err
		}
	}
	return nil
}

// Hierarchy is an inclusive three-level cache hierarchy: private L1 and L2
// per core, one shared L3. Inclusivity is enforced by back-invalidating L1
// and L2 when the L3 evicts a block.
//
// Back-invalidation is filtered by one presence byte per L3 line. Bit
// core%8 is set whenever that core's access reaches the L3, and the byte is
// reset when the line is refilled. A block can sit in a core's L1 or L2
// only if that core's access reached the L3 after the block's last fill
// there, so the set bits are a superset of the block's upper-level holders:
// exact up to 8 cores, conservative beyond (bit b stands for cores b, b+8,
// …). An eviction back-invalidates only the cores whose bit is set, which
// changes nothing observable — invalidating a cache that does not hold the
// block is a no-op.
type Hierarchy struct {
	l1, l2   []*Cache
	l3       *Cache
	presence []uint8  // per L3 line: which cores (mod 8) may hold it above
	wbBuf    []uint64 // reused writeback scratch, returned by Access
}

// NewHierarchy builds the hierarchy, drawing every cache's line arrays and
// the L3 presence bytes from a (nil allocates normally). Recycle returns
// them.
func NewHierarchy(a *arena.Arena, cfg HierarchyConfig) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &Hierarchy{}
	for i := 0; i < cfg.Cores; i++ {
		l1, err := New(a, fmt.Sprintf("l1.%d", i), cfg.L1Size, cfg.L1Ways)
		if err != nil {
			return nil, err
		}
		l2, err := New(a, fmt.Sprintf("l2.%d", i), cfg.L2Size, cfg.L2Ways)
		if err != nil {
			return nil, err
		}
		h.l1 = append(h.l1, l1)
		h.l2 = append(h.l2, l2)
	}
	var err error
	h.l3, err = New(a, "l3", cfg.L3Size, cfg.L3Ways)
	if err != nil {
		return nil, err
	}
	h.presence = arena.Slice[uint8](a, "cache.presence", len(h.l3.tags))
	return h, nil
}

// Recycle returns every cache's line arrays and the presence bytes to a
// for the next run's construction. The hierarchy must not be used
// afterwards.
func (h *Hierarchy) Recycle(a *arena.Arena) {
	for i := range h.l1 {
		h.l1[i].recycle(a)
		h.l2[i].recycle(a)
	}
	h.l3.recycle(a)
	arena.Release(a, "cache.presence", h.presence)
	h.presence = nil
}

// Access performs a load or store by core on the physical block containing
// a. It returns the level that served the access and any dirty blocks that
// must be written back to memory as a result of evictions. The returned
// slice aliases an internal scratch buffer and is only valid until the next
// Access call; callers consume it immediately.
func (h *Hierarchy) Access(core int, a uint64, write bool) (HitLevel, []uint64) {
	writebacks := h.wbBuf[:0]
	l1, l2 := h.l1[core], h.l2[core]

	if hit, _, _ := l1.Access(a, write); hit {
		return L1, nil
	}
	// L1 victims spill into L2 conceptually; we model only dirty traffic and
	// only track blocks leaving the chip (L3 evictions), so L1/L2 victims
	// are dropped unless dirty-and-not-elsewhere, which inclusivity makes
	// impossible: a dirty L1 victim is still present in L3.
	if hit, _, _ := l2.Access(a, write); hit {
		return L2, nil
	}
	hit, line, victim, evicted := h.l3.access(a, write)
	bit := uint8(1) << (core & 7)
	if hit {
		h.presence[line] |= bit
		return L3, writebacks
	}
	holders := h.presence[line]
	h.presence[line] = bit
	if evicted {
		// Inclusive hierarchy: the departing L3 block must vanish from the
		// upper levels of every core that may hold it; any dirty upper copy
		// joins the writeback.
		dirty := victim.Dirty
		for ; holders != 0; holders &= holders - 1 {
			for i := bits.TrailingZeros8(holders); i < len(h.l1); i += 8 {
				if _, d := h.l1[i].Invalidate(victim.Addr); d {
					dirty = true
				}
				if _, d := h.l2[i].Invalidate(victim.Addr); d {
					dirty = true
				}
			}
		}
		if dirty {
			writebacks = append(writebacks, victim.Addr)
			// Store the (possibly regrown) scratch only when it was
			// touched: the unconditional slice store was a measurable
			// write-barrier cost on the miss path.
			h.wbBuf = writebacks
		}
	}
	return Memory, writebacks
}

// L1Cache returns core's private L1 (for stats and tests).
func (h *Hierarchy) L1Cache(core int) *Cache { return h.l1[core] }

// L3Cache returns the shared L3.
func (h *Hierarchy) L3Cache() *Cache { return h.l3 }

// Misses returns the number of accesses that went to memory.
func (h *Hierarchy) Misses() uint64 { return h.l3.Misses() }
