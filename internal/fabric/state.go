package fabric

import "deact/internal/sim"

// State is a Fabric's mutable state for core.System.Snapshot: both link
// calendars and the packet counter.
type State struct {
	links   [2]sim.ServerState
	packets uint64
}

// CaptureState captures the fabric into st, reusing st's storage.
func (f *Fabric) CaptureState(st *State) {
	f.links[ToFAM].CaptureState(&st.links[ToFAM])
	f.links[ToNode].CaptureState(&st.links[ToNode])
	st.packets = f.packets
}

// RestoreState rewinds the fabric to st.
func (f *Fabric) RestoreState(st *State) {
	f.links[ToFAM].RestoreState(&st.links[ToFAM])
	f.links[ToNode].RestoreState(&st.links[ToNode])
	f.packets = st.packets
}
