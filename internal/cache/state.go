package cache

import (
	"deact/internal/arena"
)

// State is one Cache's mutable state for core.System.Snapshot: the full
// line arrays (tags, dirty bits, way cache, rank words) plus the counters. Geometry fields
// (sets, ways, masks) are not captured — a State is only restored into a
// cache built from the identical configuration.
type State struct {
	tags   []uint64
	dirty  []bool
	mruWay []uint16
	order  []uint64

	hits     uint64
	misses   uint64
	inserted uint64
}

// CaptureState captures the cache into st, reusing st's storage where it
// fits and drawing the rest from a (nil allocates normally).
func (c *Cache) CaptureState(a *arena.Arena, st *State) {
	st.tags = arena.CopyInto(a, "snap.cache.tags", st.tags, c.tags)
	st.dirty = arena.CopyInto(a, "snap.cache.dirty", st.dirty, c.dirty)
	st.mruWay = arena.CopyInto(a, "snap.cache.mru", st.mruWay, c.mruWay)
	st.order = arena.CopyInto(a, "snap.cache.order", st.order, c.order)
	st.hits, st.misses, st.inserted = c.hits, c.misses, c.inserted
}

// RestoreState rewinds the cache to st, copying into the cache's own line
// arrays (no aliasing with st). The cache must have the geometry st was
// captured from.
func (c *Cache) RestoreState(st *State) {
	if len(st.tags) != len(c.tags) || len(st.order) != len(c.order) {
		panic("cache: RestoreState geometry mismatch for " + c.name)
	}
	copy(c.tags, st.tags)
	copy(c.dirty, st.dirty)
	copy(c.mruWay, st.mruWay)
	copy(c.order, st.order)
	c.hits, c.misses, c.inserted = st.hits, st.misses, st.inserted
}

// Release returns st's arrays to a for reuse by later captures. The state
// must not be restored from afterwards.
func (st *State) Release(a *arena.Arena) {
	arena.Release(a, "snap.cache.tags", st.tags)
	arena.Release(a, "snap.cache.dirty", st.dirty)
	arena.Release(a, "snap.cache.mru", st.mruWay)
	arena.Release(a, "snap.cache.order", st.order)
	st.tags, st.dirty, st.mruWay, st.order = nil, nil, nil, nil
}

// HierarchyState captures every level of a Hierarchy. The writeback scratch
// buffer is not state: its contents never survive an Access call.
type HierarchyState struct {
	l1, l2 []State
	l3     State
}

// CaptureState captures the hierarchy into st.
func (h *Hierarchy) CaptureState(a *arena.Arena, st *HierarchyState) {
	if cap(st.l1) < len(h.l1) {
		st.l1 = make([]State, len(h.l1))
		st.l2 = make([]State, len(h.l2))
	}
	st.l1, st.l2 = st.l1[:len(h.l1)], st.l2[:len(h.l2)]
	for i := range h.l1 {
		h.l1[i].CaptureState(a, &st.l1[i])
		h.l2[i].CaptureState(a, &st.l2[i])
	}
	h.l3.CaptureState(a, &st.l3)
}

// RestoreState rewinds the hierarchy to st.
func (h *Hierarchy) RestoreState(st *HierarchyState) {
	if len(st.l1) != len(h.l1) {
		panic("cache: RestoreState hierarchy core count mismatch")
	}
	for i := range h.l1 {
		h.l1[i].RestoreState(&st.l1[i])
		h.l2[i].RestoreState(&st.l2[i])
	}
	h.l3.RestoreState(&st.l3)
}

// Release returns every level's arrays to a.
func (st *HierarchyState) Release(a *arena.Arena) {
	for i := range st.l1 {
		st.l1[i].Release(a)
		st.l2[i].Release(a)
	}
	st.l3.Release(a)
}
