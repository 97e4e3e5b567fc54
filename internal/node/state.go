package node

import (
	"slices"

	"deact/internal/addr"
	"deact/internal/arena"
	"deact/internal/cache"
	"deact/internal/memdev"
	"deact/internal/pagetable"
	"deact/internal/stu"
	"deact/internal/tlb"
	"deact/internal/translator"
)

// State is a Node's mutable state for core.System.Snapshot: local DRAM
// calendars, the cache hierarchy, per-core MMUs, the node page table, the
// scheme-specific translator/STU state, the OS allocator cursors, the
// direct NP→FAM backing table and the counters. The broker-owned FAM page
// table the STU walks is captured by the broker, not here.
type State struct {
	dram   memdev.State
	hier   cache.HierarchyState
	mmus   []tlb.MMUState
	pt     pagetable.State
	trans  translator.State
	stu    stu.State
	osa    osAllocator
	direct []addr.FPage
	pf     []pfEntry
	stats  Stats
}

// CaptureState captures the node into st.
func (n *Node) CaptureState(st *State) {
	n.dram.CaptureState(&st.dram)
	n.hier.CaptureState(&st.hier)
	st.mmus = make([]tlb.MMUState, len(n.mmus))
	for i, m := range n.mmus {
		m.CaptureState(&st.mmus[i])
	}
	n.pt.CaptureState(&st.pt)
	if n.trans != nil {
		n.trans.CaptureState(&st.trans)
	}
	if n.stuU != nil {
		n.stuU.CaptureState(&st.stu)
	}
	st.osa = *n.osa
	st.direct = slices.Clone(n.direct)
	if n.pf != nil {
		st.pf = slices.Clone(n.pf.tbl)
	}
	st.stats = n.stats
}

// RestoreState rewinds the node to st. The node must be built from the
// configuration st was captured from.
func (n *Node) RestoreState(st *State) {
	n.dram.RestoreState(&st.dram)
	n.hier.RestoreState(&st.hier)
	if len(st.mmus) != len(n.mmus) {
		panic("node: RestoreState MMU count mismatch")
	}
	for i, m := range n.mmus {
		m.RestoreState(&st.mmus[i])
	}
	n.pt.RestoreState(&st.pt)
	if n.trans != nil {
		n.trans.RestoreState(&st.trans)
	}
	if n.stuU != nil {
		n.stuU.RestoreState(&st.stu)
	}
	*n.osa = st.osa
	n.direct = arena.Extend(n.direct[:0], len(st.direct))
	copy(n.direct, st.direct)
	if n.pf != nil {
		if len(st.pf) != len(n.pf.tbl) {
			panic("node: RestoreState prefetch table size mismatch")
		}
		copy(n.pf.tbl, st.pf)
	}
	n.stats = st.stats
}
