package tlb

// Snapshot state for tables, PTW caches and MMUs (core.System.Snapshot). The
// arrays here are small (tens to hundreds of entries), so the states copy
// into plain slices reused across captures rather than going through
// internal/arena.

// TableState is a Table's mutable state.
type TableState[V any] struct {
	tags    []uint64
	values  []V
	valid   []bool
	stamps  []uint64
	tick    uint64
	hits    uint64
	misses  uint64
	flushes uint64
}

// CaptureState captures the table into st, reusing st's storage.
func (t *Table[V]) CaptureState(st *TableState[V]) {
	st.tags = append(st.tags[:0], t.tags...)
	st.values = append(st.values[:0], t.values...)
	st.valid = append(st.valid[:0], t.valid...)
	st.stamps = append(st.stamps[:0], t.stamps...)
	st.tick = t.tick
	st.hits, st.misses, st.flushes = t.hits, t.misses, t.flushes
}

// RestoreState rewinds the table to st, copying into the table's own
// arrays. The table must have the geometry st was captured from.
func (t *Table[V]) RestoreState(st *TableState[V]) {
	if len(st.tags) != len(t.tags) {
		panic("tlb: RestoreState geometry mismatch for " + t.name)
	}
	copy(t.tags, st.tags)
	copy(t.values, st.values)
	copy(t.valid, st.valid)
	copy(t.stamps, st.stamps)
	t.tick = st.tick
	t.hits, t.misses, t.flushes = st.hits, st.misses, st.flushes
}

// PTWCacheState is a PTWCache's mutable state.
type PTWCacheState struct {
	keys   []uint64
	stamps []uint64
	tick   uint64
	hits   uint64
	misses uint64
}

// CaptureState captures the PTW cache into st, reusing st's storage.
func (p *PTWCache) CaptureState(st *PTWCacheState) {
	st.keys = append(st.keys[:0], p.keys...)
	st.stamps = append(st.stamps[:0], p.stamps...)
	st.tick = p.tick
	st.hits, st.misses = p.hits, p.misses
}

// RestoreState rewinds the PTW cache to st.
func (p *PTWCache) RestoreState(st *PTWCacheState) {
	if len(st.keys) != len(p.keys) {
		panic("tlb: RestoreState PTW cache size mismatch")
	}
	copy(p.keys, st.keys)
	copy(p.stamps, st.stamps)
	p.tick = st.tick
	p.hits, p.misses = st.hits, st.misses
}

// MMUState bundles the three structures of one MMU.
type MMUState struct {
	l1, l2 TableState[uint64]
	ptw    PTWCacheState
}

// CaptureState captures the MMU into st.
func (m *MMU) CaptureState(st *MMUState) {
	m.L1.CaptureState(&st.l1)
	m.L2.CaptureState(&st.l2)
	m.PTW.CaptureState(&st.ptw)
}

// RestoreState rewinds the MMU to st.
func (m *MMU) RestoreState(st *MMUState) {
	m.L1.RestoreState(&st.l1)
	m.L2.RestoreState(&st.l2)
	m.PTW.RestoreState(&st.ptw)
}
