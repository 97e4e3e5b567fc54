package cache

import "slices"

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

// CaptureState captures the cache into st.
func (c *Cache) CaptureState(st *State) {
	st.tags = slices.Clone(c.tags)
	st.dirty = slices.Clone(c.dirty)
	st.mruWay = slices.Clone(c.mruWay)
	st.order = slices.Clone(c.order)
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

// HierarchyState captures every level of a Hierarchy and the L3 presence
// bytes. The writeback scratch buffer is not state: its contents never
// survive an Access call.
type HierarchyState struct {
	l1, l2   []State
	l3       State
	presence []uint8
}

// CaptureState captures the hierarchy into st.
func (h *Hierarchy) CaptureState(st *HierarchyState) {
	st.l1 = make([]State, len(h.l1))
	st.l2 = make([]State, len(h.l2))
	for i := range h.l1 {
		h.l1[i].CaptureState(&st.l1[i])
		h.l2[i].CaptureState(&st.l2[i])
	}
	h.l3.CaptureState(&st.l3)
	st.presence = slices.Clone(h.presence)
}

// RestoreState rewinds the hierarchy to st.
func (h *Hierarchy) RestoreState(st *HierarchyState) {
	if len(st.l1) != len(h.l1) || len(st.presence) != len(h.presence) {
		panic("cache: RestoreState hierarchy geometry mismatch")
	}
	for i := range h.l1 {
		h.l1[i].RestoreState(&st.l1[i])
		h.l2[i].RestoreState(&st.l2[i])
	}
	h.l3.RestoreState(&st.l3)
	copy(h.presence, st.presence)
}
