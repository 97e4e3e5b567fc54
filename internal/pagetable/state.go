package pagetable

import (
	"slices"

	"deact/internal/arena"
)

// State is a Table's mutable state for core.System.Snapshot: the whole node
// arena (each tnode is pointer-free, so a slice copy is a deep copy) plus
// the counters. The allocator callback is not captured — it is construction
// wiring, and restore happens into a table built with the same wiring.
type State struct {
	nodes      []tnode
	mapped     uint64
	tableNodes uint64
}

// CaptureState captures the table into st.
func (t *Table) CaptureState(st *State) {
	st.nodes = slices.Clone(t.nodes)
	st.mapped, st.tableNodes = t.mapped, t.tableNodes
}

// RestoreState rewinds the table to st *in place*: the receiver keeps its
// identity (holders of the *Table — the STU, the broker's node map — keep
// aliasing the restored table) while its node arena is overwritten with
// st's contents.
func (t *Table) RestoreState(st *State) {
	t.nodes = arena.Extend(t.nodes[:0], len(st.nodes))
	copy(t.nodes, st.nodes)
	t.mapped, t.tableNodes = st.mapped, st.tableNodes
}
