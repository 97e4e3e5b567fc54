package broker

import (
	"fmt"
	"maps"
	"slices"

	"deact/internal/acm"
	"deact/internal/addr"
	"deact/internal/pagetable"
	"deact/internal/rng"
)

// State is a Broker's mutable state for core.System.Snapshot: the placement
// RNG position, the virtual free pool, the owner table, every node's FAM
// page table, the shared-region carve state, and the metadata store the
// broker owns.
type State struct {
	rng       rng.State
	freeCount uint64
	freeMods  map[uint64]addr.FPage
	owner     []uint16
	tables    map[uint16]*pagetable.State
	hugeNext  uint64
	randLimit uint64
	allocated uint64
	meta      acm.StoreState
}

// CaptureState captures the broker into st.
func (b *Broker) CaptureState(st *State) {
	st.rng = b.rng.State()
	st.freeCount = b.freeCount
	st.freeMods = maps.Clone(b.freeMods)
	st.owner = slices.Clone(b.owner)
	st.tables = make(map[uint16]*pagetable.State, len(b.nodeMaps))
	for id, t := range b.nodeMaps {
		tst := &pagetable.State{}
		t.CaptureState(tst)
		st.tables[id] = tst
	}
	st.hugeNext, st.randLimit, st.allocated = b.hugeNext, b.randLimit, b.allocated
	b.meta.CaptureState(&st.meta)
}

// RestoreState rewinds the broker to st. Node tables are restored *through*
// the broker's own table objects (created on demand), so aliases held by
// the STUs keep pointing at live, restored tables. Creation draws from the
// broker's RNG and scratches the owner table, which is why the RNG, owner
// and free-pool state are overwritten only afterwards.
func (b *Broker) RestoreState(st *State) error {
	for id, tst := range st.tables {
		t, err := b.NodeTable(id)
		if err != nil {
			return fmt.Errorf("broker: restoring node %d table: %w", id, err)
		}
		t.RestoreState(tst)
	}
	for id, t := range b.nodeMaps {
		if _, ok := st.tables[id]; !ok {
			delete(b.nodeMaps, id)
			t.Recycle(b.a)
		}
	}
	b.rng.Restore(st.rng)
	b.freeCount = st.freeCount
	clear(b.freeMods)
	for i, p := range st.freeMods {
		b.freeMods[i] = p
	}
	if len(st.owner) != len(b.owner) {
		return fmt.Errorf("broker: RestoreState owner table size mismatch (%d vs %d)", len(st.owner), len(b.owner))
	}
	copy(b.owner, st.owner)
	b.hugeNext, b.randLimit, b.allocated = st.hugeNext, st.randLimit, st.allocated
	b.meta.RestoreState(&st.meta)
	return nil
}
