package cache

import (
	"testing"
	"testing/quick"
)

// mustNew builds a cache of a statically known-good geometry.
func mustNew(name string, sizeBytes uint64, ways int) *Cache {
	c, err := New(nil, name, sizeBytes, ways)
	if err != nil {
		panic(err)
	}
	return c
}

func TestNewRejectsBadGeometry(t *testing.T) {
	if _, err := New(nil, "x", 32*1024, 0); err == nil {
		t.Error("zero ways accepted")
	}
	if _, err := New(nil, "x", 3000, 4); err == nil {
		t.Error("non-power-of-two set count accepted")
	}
	if _, err := New(nil, "x", 0, 4); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := New(nil, "x", 64*32, 32); err == nil {
		t.Error("32 ways accepted (the rank word holds at most 16)")
	}
	c, err := New(nil, "l1", 32*1024, 8)
	if err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	if c.Sets() != 64 || c.Ways() != 8 || c.Name() != "l1" {
		t.Fatalf("geometry wrong: sets=%d ways=%d", c.Sets(), c.Ways())
	}
}

func TestHitAfterMiss(t *testing.T) {
	c := mustNew("c", 1024, 2) // 8 sets
	if hit, _, _ := c.Access(0x1000, false); hit {
		t.Fatal("cold access hit")
	}
	if hit, _, _ := c.Access(0x1000, false); !hit {
		t.Fatal("second access missed")
	}
	// Same block, different offset word: still a hit.
	if hit, _, _ := c.Access(0x103F, false); !hit {
		t.Fatal("same-block access missed")
	}
	if c.Hits() != 2 || c.Misses() != 1 {
		t.Fatalf("counters: h=%d m=%d", c.Hits(), c.Misses())
	}
	if got := c.HitRate(); got < 0.66 || got > 0.67 {
		t.Fatalf("hit rate %v", got)
	}
}

func TestLRUEviction(t *testing.T) {
	c := mustNew("c", 2*64, 2) // 1 set, 2 ways
	c.Access(0x000, false)     // A
	c.Access(0x040, false)     // B
	c.Access(0x000, false)     // touch A; B is now LRU
	_, victim, evicted := c.Access(0x080, false)
	if !evicted || victim.Addr != 0x040 {
		t.Fatalf("LRU eviction wrong: evicted=%v victim=%#x", evicted, victim.Addr)
	}
	if !c.Probe(0x000) || c.Probe(0x040) {
		t.Fatal("wrong line evicted")
	}
}

func TestDirtyVictim(t *testing.T) {
	c := mustNew("c", 64, 1) // direct-mapped, 1 line
	c.Access(0x000, true)    // dirty
	_, victim, evicted := c.Access(0x040, false)
	if !evicted || !victim.Dirty || victim.Addr != 0 {
		t.Fatalf("dirty victim lost: %+v evicted=%v", victim, evicted)
	}
	// Clean victim stays clean.
	_, victim, evicted = c.Access(0x080, false)
	if !evicted || victim.Dirty || victim.Addr != 0x040 {
		t.Fatalf("clean victim wrong: %+v", victim)
	}
}

func TestWriteMarksDirtyOnHit(t *testing.T) {
	c := mustNew("c", 64, 1)
	c.Access(0x000, false) // clean allocate
	c.Access(0x000, true)  // hit-write dirties
	_, victim, _ := c.Access(0x040, false)
	if !victim.Dirty {
		t.Fatal("hit-write did not dirty the line")
	}
}

func TestInvalidate(t *testing.T) {
	c := mustNew("c", 1024, 4)
	c.Access(0x2000, true)
	present, dirty := c.Invalidate(0x2000)
	if !present || !dirty {
		t.Fatalf("invalidate: present=%v dirty=%v", present, dirty)
	}
	if c.Probe(0x2000) {
		t.Fatal("block survived invalidation")
	}
	if present, _ := c.Invalidate(0x2000); present {
		t.Fatal("double invalidation reported present")
	}
}

func TestVictimAddressReconstruction(t *testing.T) {
	c := mustNew("c", 64*16, 1) // 16 sets, direct-mapped
	// Two addresses mapping to the same set, different tags.
	a1 := uint64(5 << 6)
	a2 := a1 + 16*64
	c.Access(a1, false)
	_, victim, evicted := c.Access(a2, false)
	if !evicted || victim.Addr != a1 {
		t.Fatalf("reconstructed victim %#x, want %#x", victim.Addr, a1)
	}
}

// Property: a probe immediately after an access always hits, and the cache
// never holds more distinct blocks than its capacity.
func TestCacheCoherentQuick(t *testing.T) {
	c := mustNew("c", 4096, 4)
	resident := map[uint64]bool{}
	f := func(a uint32, w bool) bool {
		blk := uint64(a) &^ 63
		_, victim, evicted := c.Access(blk, w)
		resident[blk] = true
		if evicted {
			delete(resident, victim.Addr)
		}
		if len(resident) > 64 { // 4096/64 blocks capacity
			return false
		}
		return c.Probe(blk)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
