package stu

import (
	"deact/internal/acm"
	"deact/internal/sim"
	"deact/internal/tlb"
)

// State is an STU's mutable state for core.System.Snapshot: the port
// calendar, whichever cache organization is active, the FAM walk cache and
// the counters. The walk scratch buffer is not state (it never survives a
// call), and the page-table alias is restored by the broker, not here.
type State struct {
	port   sim.ServerState
	ifam   tlb.TableState[ifamEntry]
	wcache tlb.TableState[struct{}]
	ncache tlb.TableState[acm.Entry]
	ptw    tlb.PTWCacheState
	stats  Stats
}

// CaptureState captures the STU into st, reusing st's storage.
func (s *STU) CaptureState(st *State) {
	s.port.CaptureState(&st.port)
	if s.ifam != nil {
		s.ifam.CaptureState(&st.ifam)
	}
	if s.wcache != nil {
		s.wcache.CaptureState(&st.wcache)
	}
	if s.ncache != nil {
		s.ncache.CaptureState(&st.ncache)
	}
	s.ptw.CaptureState(&st.ptw)
	st.stats = s.stats
}

// RestoreState rewinds the STU to st. The STU must be built from the
// configuration st was captured from.
func (s *STU) RestoreState(st *State) {
	s.port.RestoreState(&st.port)
	if s.ifam != nil {
		s.ifam.RestoreState(&st.ifam)
	}
	if s.wcache != nil {
		s.wcache.RestoreState(&st.wcache)
	}
	if s.ncache != nil {
		s.ncache.RestoreState(&st.ncache)
	}
	s.ptw.RestoreState(&st.ptw)
	s.stats = st.stats
}
