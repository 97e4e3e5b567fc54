package translator

import (
	"slices"

	"deact/internal/rng"
	"deact/internal/sim"
)

// State is a Translator's mutable state for core.System.Snapshot: the
// translation-cache lines, the outstanding-mapping slot ring, the
// replacement RNG position and the counters. The DRAM device the lines
// live in is wiring, restored separately by its own state.
type State struct {
	rng     rng.State
	lines   []entry
	slots   []sim.Time
	slotIdx int
	stats   Stats
}

// CaptureState captures the translator into st.
func (t *Translator) CaptureState(st *State) {
	st.rng = t.rng.State()
	st.lines = slices.Clone(t.lines)
	st.slots = slices.Clone(t.slots)
	st.slotIdx = t.slotIdx
	st.stats = t.stats
}

// RestoreState rewinds the translator to st, copying into the translator's
// own arrays. The translator must be built from the configuration st was
// captured from.
func (t *Translator) RestoreState(st *State) {
	if len(st.lines) != len(t.lines) || len(st.slots) != len(t.slots) {
		panic("translator: RestoreState geometry mismatch")
	}
	t.rng.Restore(st.rng)
	copy(t.lines, st.lines)
	copy(t.slots, st.slots)
	t.slotIdx = st.slotIdx
	t.stats = st.stats
}
