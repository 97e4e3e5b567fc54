package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// stampCache is the per-way stamp LRU the rank word replaced, kept here as
// its oracle. Each way records the tick of its last use; empty ways hold 0
// and lose every comparison, so they fill first, and ties go to the lowest
// way. It shares only the index arithmetic with Cache, so the rank word is
// correct only if every observable output — hit/miss, victim identity,
// victim dirtiness, Probe — is bit-identical to this.
type stampCache struct {
	geom         *Cache // supplies index and reconstruct; its lines are unused
	tags         []uint64
	dirty        []bool
	used         []uint64
	tick         uint64
	hits, misses uint64
}

func newStampCache(geom *Cache) *stampCache {
	n := geom.sets * uint64(geom.ways)
	s := &stampCache{geom: geom, tags: make([]uint64, n), dirty: make([]bool, n), used: make([]uint64, n)}
	for i := range s.tags {
		s.tags[i] = invalidTag
	}
	return s
}

func (s *stampCache) find(a uint64) (base, idx uint64, ok bool) {
	set, tag := s.geom.index(a)
	base = set * uint64(s.geom.ways)
	for w := 0; w < s.geom.ways; w++ {
		if i := base + uint64(w); s.tags[i] == tag {
			return base, i, true
		}
	}
	return base, 0, false
}

func (s *stampCache) Probe(a uint64) bool {
	_, _, ok := s.find(a)
	return ok
}

func (s *stampCache) Access(a uint64, write bool) (hit bool, victim Victim, evicted bool) {
	s.tick++
	base, i, ok := s.find(a)
	if ok {
		s.used[i] = s.tick
		s.dirty[i] = s.dirty[i] || write
		s.hits++
		return true, Victim{}, false
	}
	s.misses++
	lru := base
	for w := 1; w < s.geom.ways; w++ {
		if j := base + uint64(w); s.used[j] < s.used[lru] {
			lru = j
		}
	}
	if s.tags[lru] != invalidTag {
		victim = Victim{Addr: s.geom.reconstruct(lru, s.tags[lru]), Dirty: s.dirty[lru]}
		evicted = true
	}
	_, s.tags[lru] = s.geom.index(a)
	s.dirty[lru] = write
	s.used[lru] = s.tick
	return false, victim, evicted
}

func (s *stampCache) Invalidate(a uint64) (present, dirty bool) {
	_, i, ok := s.find(a)
	if !ok {
		return false, false
	}
	dirty = s.dirty[i]
	s.tags[i], s.dirty[i], s.used[i] = invalidTag, false, 0
	return true, dirty
}

// lruCache is the surface a Cache and its stamp oracle share.
type lruCache interface {
	Access(a uint64, write bool) (hit bool, victim Victim, evicted bool)
	Invalidate(a uint64) (present, dirty bool)
}

// oraclePair builds a cache and a stamp oracle of the same geometry.
func oraclePair(t *testing.T, sizeBytes uint64, ways int) (*Cache, *stampCache) {
	t.Helper()
	rank, err := New(nil, "rank", sizeBytes, ways)
	if err != nil {
		t.Fatal(err)
	}
	return rank, newStampCache(mustNew("geom", sizeBytes, ways))
}

// TestRankWordMatchesStampOracle drives randomized access/invalidate
// streams through both representations at associativities from 1 to 16
// and requires bit-identical observable behaviour at each step. The
// address range is kept tight (a few sets' worth of conflicting blocks) so
// evictions, refills and re-invalidations all occur constantly.
func TestRankWordMatchesStampOracle(t *testing.T) {
	for _, tc := range []struct {
		sizeBytes uint64
		ways      int
	}{
		{64 * 4, 1},       // direct-mapped, 4 sets
		{64 * 2, 2},       // one set, 2 ways
		{64 * 4 * 2, 4},   // 2 sets
		{64 * 8, 8},       // one set, 8 ways
		{64 * 8 * 4, 8},   // 4 sets (the L1/L2 shape)
		{64 * 16, 16},     // one set, 16 ways (all nibbles used)
		{64 * 16 * 4, 16}, // 4 sets, 16 ways (the L3 shape)
	} {
		t.Run(fmt.Sprintf("%dB_%dway", tc.sizeBytes, tc.ways), func(t *testing.T) {
			rank, stamp := oraclePair(t, tc.sizeBytes, tc.ways)
			rng := rand.New(rand.NewSource(int64(tc.sizeBytes)*31 + int64(tc.ways)))

			// 4x the capacity in distinct blocks forces steady conflict.
			blocks := 4 * int(tc.sizeBytes) / 64
			steps := 20000
			if testing.Short() {
				steps = 4000
			}
			for i := 0; i < steps; i++ {
				a := uint64(rng.Intn(blocks)) * 64
				switch rng.Intn(10) {
				case 0: // invalidate (resident or not)
					p1, d1 := rank.Invalidate(a)
					p2, d2 := stamp.Invalidate(a)
					if p1 != p2 || d1 != d2 {
						t.Fatalf("step %d: Invalidate(%#x) diverged: rank=(%v,%v) stamp=(%v,%v)", i, a, p1, d1, p2, d2)
					}
				default:
					w := rng.Intn(3) == 0
					h1, v1, e1 := rank.Access(a, w)
					h2, v2, e2 := stamp.Access(a, w)
					if h1 != h2 || e1 != e2 || v1 != v2 {
						t.Fatalf("step %d: Access(%#x,%v) diverged: rank=(%v,%+v,%v) stamp=(%v,%+v,%v)",
							i, a, w, h1, v1, e1, h2, v2, e2)
					}
				}
				if p := uint64(rng.Intn(blocks)) * 64; rank.Probe(p) != stamp.Probe(p) {
					t.Fatalf("step %d: Probe diverged", i)
				}
			}
			if rank.Hits() != stamp.hits || rank.Misses() != stamp.misses {
				t.Fatalf("counters diverged: rank %d/%d stamp %d/%d",
					rank.Hits(), rank.Misses(), stamp.hits, stamp.misses)
			}
		})
	}
}

// TestRankWordInvalidateTieBreak pins the subtle case the stamp scan
// resolves implicitly: multiple simultaneously-empty ways must refill
// lowest-way-first regardless of the order they were invalidated in.
func TestRankWordInvalidateTieBreak(t *testing.T) {
	for _, order := range [][2]uint64{{1, 3}, {3, 1}} {
		rank, stamp := oraclePair(t, 64*4, 4) // one set, 4 ways
		for _, c := range []lruCache{rank, stamp} {
			for w := uint64(0); w < 4; w++ {
				c.Access(w*64, false) // fill ways 0..3 with blocks 0..3
			}
			c.Invalidate(order[0] * 64)
			c.Invalidate(order[1] * 64)
		}
		// Two refills must land in the emptied ways lowest-way-first on
		// both representations: no evictions, then the next miss evicts
		// the same victim on both.
		for i, a := range []uint64{9 * 64, 10 * 64, 11 * 64} {
			h1, v1, e1 := rank.Access(a, false)
			h2, v2, e2 := stamp.Access(a, false)
			if h1 != h2 || e1 != e2 || v1 != v2 {
				t.Fatalf("invalidate order %v, refill %d: rank=(%v,%+v,%v) stamp=(%v,%+v,%v)",
					order, i, h1, v1, e1, h2, v2, e2)
			}
			if i < 2 && e1 {
				t.Fatalf("refill %d evicted despite empty ways", i)
			}
		}
	}
}

// TestInitOrderWord pins the rank-word layout: way 0 at the LRU position,
// filler nibbles 0xF above the used region.
func TestInitOrderWord(t *testing.T) {
	if got := initOrderWord(16); got != 0x0123456789ABCDEF {
		t.Errorf("initOrderWord(16) = %#x", got)
	}
	if got := initOrderWord(2); got != 0xFFFF_FFFF_FFFF_FF01 {
		t.Errorf("initOrderWord(2) = %#x", got)
	}
	if got := initOrderWord(1); got != 0xFFFF_FFFF_FFFF_FFF0 {
		t.Errorf("initOrderWord(1) = %#x", got)
	}
}

// BenchmarkCacheAccess guards the per-access cost of the three access
// outcomes the hierarchy mixes: repeat hits (way-cache path), scan hits
// (tag scan + rank promotion), and a streaming miss/eviction mix (victim
// selection). Run with -benchmem: every path must stay at 0 allocs/op.
func BenchmarkCacheAccess(b *testing.B) {
	for _, ways := range []int{8, 16} {
		c := mustNew("bench", 64<<10, ways) // the L2 shape (and L3 assoc)
		sets := int(c.Sets())

		b.Run(fmt.Sprintf("hit-mru/%dway", ways), func(b *testing.B) {
			c.Access(0, false)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Access(0, false)
			}
		})
		b.Run(fmt.Sprintf("hit-scan/%dway", ways), func(b *testing.B) {
			// Two blocks in one set: each access hits the non-MRU way,
			// defeating the way cache and exercising promotion.
			a0, a1 := uint64(0), uint64(sets*64)
			c.Access(a0, false)
			c.Access(a1, false)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Access([2]uint64{a0, a1}[i&1], false)
			}
		})
		b.Run(fmt.Sprintf("miss-evict/%dway", ways), func(b *testing.B) {
			// A strided stream over 2x the cache's reach: every access
			// misses and, once warm, evicts (dirty half the time).
			blocks := 2 * sets * ways
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Access(uint64(i%blocks)*64, i&2 == 0)
			}
		})
	}
}
