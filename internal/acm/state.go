package acm

import (
	"maps"
	"slices"

	"deact/internal/addr"
	"deact/internal/arena"
)

// StoreState is a Store's mutable state for core.System.Snapshot: deep
// copies of every materialized chunk (nil-ness preserved — an
// unmaterialized region stays unmaterialized after restore only in the
// sense that its contents are all-absent; see RestoreState), the nested
// shared-region grant maps, and the write counter.
type StoreState struct {
	chunks [][]slot
	shared map[uint64]map[uint16]Perm
	writes uint64
}

// CaptureState captures the store into st.
func (s *Store) CaptureState(st *StoreState) {
	st.chunks = make([][]slot, len(s.chunks))
	for i, c := range s.chunks {
		st.chunks[i] = slices.Clone(c)
	}
	st.shared = make(map[uint64]map[uint16]Perm, len(s.shared))
	for huge, grants := range s.shared {
		st.shared[huge] = maps.Clone(grants)
	}
	st.writes = s.writes
}

// RestoreState rewinds the store to st. Chunks the store has materialized
// but st captured as absent are zeroed in place rather than released: an
// all-absent chunk is observationally identical to an unmaterialized one,
// and keeping the slab saves the next run's materialization.
func (s *Store) RestoreState(st *StoreState) {
	for i := len(st.chunks); i < len(s.chunks); i++ {
		clear(s.chunks[i])
	}
	if len(s.chunks) < len(st.chunks) {
		grown := make([][]slot, len(st.chunks))
		copy(grown, s.chunks)
		s.chunks = grown
	}
	s.chunks = s.chunks[:len(st.chunks)]
	for i, src := range st.chunks {
		if len(src) == 0 {
			clear(s.chunks[i])
			continue
		}
		if s.chunks[i] == nil {
			s.chunks[i] = arena.Slice[slot](s.a, "acm.chunk", addr.PagesPerHuge)
		}
		copy(s.chunks[i], src)
	}
	clear(s.shared)
	for huge, grants := range st.shared {
		m := make(map[uint16]Perm, len(grants))
		for n, p := range grants {
			m[n] = p
		}
		s.shared[huge] = m
	}
	s.writes = st.writes
}
