package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func smallHierarchy(t *testing.T, cores int) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(nil, HierarchyConfig{
		Cores: cores,
		// Tiny levels so evictions are easy to force.
		L1Size: 4 * 64, L1Ways: 2,
		L2Size: 8 * 64, L2Ways: 2,
		L3Size: 16 * 64, L3Ways: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHierarchyLevels(t *testing.T) {
	h := smallHierarchy(t, 1)
	if lvl, _ := h.Access(0, 0x1000, false); lvl != Memory {
		t.Fatalf("cold access served at %v", lvl)
	}
	if lvl, _ := h.Access(0, 0x1000, false); lvl != L1 {
		t.Fatalf("warm access served at %v, want L1", lvl)
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	h := smallHierarchy(t, 1)
	h.Access(0, 0x0000, false)
	// Fill L1's set for 0x0000 (L1: 2 sets × 2 ways; same-set stride = 128B)
	// so 0x0000 falls out of L1 but stays in L2.
	h.Access(0, 0x0080, false)
	h.Access(0, 0x0100, false)
	if lvl, _ := h.Access(0, 0x0000, false); lvl != L2 {
		t.Fatalf("expected L2 hit, got %v", lvl)
	}
}

func TestHierarchyPrivateL1PerCore(t *testing.T) {
	h := smallHierarchy(t, 2)
	h.Access(0, 0x4000, false)
	// Core 1 misses its private L1/L2 but hits the shared L3.
	if lvl, _ := h.Access(1, 0x4000, false); lvl != L3 {
		t.Fatalf("core 1 served at %v, want shared L3", lvl)
	}
}

func TestInclusiveBackInvalidation(t *testing.T) {
	h := smallHierarchy(t, 1)
	h.Access(0, 0x0000, true) // dirty in L1 (and resident in L3)
	// Evict 0x0000 from L3: its set (L3: 4 sets × 4 ways, same-set stride =
	// 256B) needs 4 more distinct blocks.
	for i := 1; i <= 4; i++ {
		_, wbs := h.Access(0, uint64(i)*0x100, false)
		for _, wb := range wbs {
			if wb == 0x0000 {
				// Back-invalidation found the dirty L1 copy and wrote it back.
				if h.L1Cache(0).Probe(0x0000) {
					t.Fatal("L1 copy survived back-invalidation")
				}
				return
			}
		}
	}
	t.Fatal("dirty block evicted from L3 without a writeback")
}

func TestWritebackOnlyWhenDirty(t *testing.T) {
	h := smallHierarchy(t, 1)
	var wbCount int
	// Clean streaming should evict plenty of blocks but write back none.
	for i := 0; i < 64; i++ {
		_, wbs := h.Access(0, uint64(i)*64, false)
		wbCount += len(wbs)
	}
	if wbCount != 0 {
		t.Fatalf("clean traffic produced %d writebacks", wbCount)
	}
}

func TestHierarchyMissCounter(t *testing.T) {
	h := smallHierarchy(t, 1)
	for i := 0; i < 10; i++ {
		h.Access(0, uint64(i)*4096, false)
	}
	if h.Misses() != 10 {
		t.Fatalf("misses = %d, want 10", h.Misses())
	}
}

func TestNewHierarchyRejectsBadConfig(t *testing.T) {
	if _, err := NewHierarchy(nil, HierarchyConfig{Cores: 0}); err == nil {
		t.Fatal("zero cores accepted")
	}
	if _, err := NewHierarchy(nil, HierarchyConfig{Cores: 1, L1Size: 100, L1Ways: 3}); err == nil {
		t.Fatal("bad L1 geometry accepted")
	}
	good := HierarchyConfig{Cores: 1, L1Size: 8 << 10, L1Ways: 8, L2Size: 64 << 10, L2Ways: 8, L3Size: 256 << 10, L3Ways: 16}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid hierarchy rejected: %v", err)
	}
	for name, mut := range map[string]func(*HierarchyConfig){
		"L1Ways=0":  func(c *HierarchyConfig) { c.L1Ways = 0 },
		"L2Size=0":  func(c *HierarchyConfig) { c.L2Size = 0 },
		"L3Ways=32": func(c *HierarchyConfig) { c.L3Ways = 32 },
	} {
		c := good
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s accepted by Validate", name)
		}
		if _, err := NewHierarchy(nil, c); err == nil {
			t.Errorf("%s accepted by NewHierarchy", name)
		}
	}
}

func TestHitLevelString(t *testing.T) {
	for lvl, want := range map[HitLevel]string{L1: "L1", L2: "L2", L3: "L3", Memory: "memory", HitLevel(9): "HitLevel(9)"} {
		if lvl.String() != want {
			t.Errorf("String(%d) = %q, want %q", int(lvl), lvl.String(), want)
		}
	}
}

// unfilteredAccess is Hierarchy.Access without the presence filter, kept as
// its oracle: every L3 eviction back-invalidates the L1 and L2 of every
// core. It drives h's caches directly and never reads or writes h's
// presence bytes.
func unfilteredAccess(h *Hierarchy, core int, a uint64, write bool) (HitLevel, []uint64) {
	if hit, _, _ := h.l1[core].Access(a, write); hit {
		return L1, nil
	}
	if hit, _, _ := h.l2[core].Access(a, write); hit {
		return L2, nil
	}
	hit, victim, evicted := h.l3.Access(a, write)
	var writebacks []uint64
	if evicted {
		dirty := victim.Dirty
		for i := range h.l1 {
			if _, d := h.l1[i].Invalidate(victim.Addr); d {
				dirty = true
			}
			if _, d := h.l2[i].Invalidate(victim.Addr); d {
				dirty = true
			}
		}
		if dirty {
			writebacks = append(writebacks, victim.Addr)
		}
	}
	if hit {
		return L3, writebacks
	}
	return Memory, writebacks
}

// cacheStates captures every cache of h, L1s and L2s in core order, then
// the L3: line arrays and counters, everything but the presence bytes.
func cacheStates(h *Hierarchy) []State {
	var out []State
	for _, c := range append(append(append([]*Cache{}, h.l1...), h.l2...), h.l3) {
		var st State
		c.CaptureState(&st)
		out = append(out, st)
	}
	return out
}

// TestPresenceFilterMatchesUnfiltered drives random multi-core streams
// through a presence-filtered hierarchy and the unfiltered oracle. Every
// access must be served at the same level with the same writebacks, and
// every cache's lines and counters must stay identical. Twelve cores
// exercise the mod-8 aliasing of the presence bits; tiny levels force a
// back-invalidation on most L3 misses. Halfway through, the filtered
// hierarchy's state is captured and restored into a fresh hierarchy, which
// continues the stream: the presence bytes must survive the round trip.
func TestPresenceFilterMatchesUnfiltered(t *testing.T) {
	for _, cores := range []int{1, 4, 12} {
		t.Run(fmt.Sprintf("cores=%d", cores), func(t *testing.T) {
			h, ref := smallHierarchy(t, cores), smallHierarchy(t, cores)
			rng := rand.New(rand.NewSource(int64(cores)))
			const steps = 20000
			for step := 0; step < steps; step++ {
				if step == steps/2 {
					var st HierarchyState
					h.CaptureState(&st)
					h = smallHierarchy(t, cores)
					h.RestoreState(&st)
				}
				core := rng.Intn(cores)
				a := uint64(rng.Intn(48)) * 64
				write := rng.Intn(4) == 0
				lvl, wbs := h.Access(core, a, write)
				wantLvl, wantWbs := unfilteredAccess(ref, core, a, write)
				if lvl != wantLvl || !slices.Equal(wbs, wantWbs) {
					t.Fatalf("step %d (core %d, %#x): got %v %v, oracle %v %v",
						step, core, a, lvl, wbs, wantLvl, wantWbs)
				}
				if step%1000 == 0 && !reflect.DeepEqual(cacheStates(h), cacheStates(ref)) {
					t.Fatalf("step %d: cache state diverged from the oracle", step)
				}
			}
			if !reflect.DeepEqual(cacheStates(h), cacheStates(ref)) {
				t.Fatal("final cache state diverged from the oracle")
			}
		})
	}
}
