package memdev

import "deact/internal/sim"

// State is a Device's mutable state for core.System.Snapshot: the port and
// per-bank reservation calendars and the access counters.
type State struct {
	port  sim.ServerState
	banks []sim.ServerState

	reads  uint64
	writes uint64
}

// CaptureState captures the device into st, reusing st's storage.
func (d *Device) CaptureState(st *State) {
	d.port.CaptureState(&st.port)
	if cap(st.banks) < len(d.banks) {
		st.banks = make([]sim.ServerState, len(d.banks))
	}
	st.banks = st.banks[:len(d.banks)]
	for i := range d.banks {
		d.banks[i].CaptureState(&st.banks[i])
	}
	st.reads, st.writes = d.reads, d.writes
}

// RestoreState rewinds the device to st. The device must have the same bank
// count st was captured from (guaranteed when both come from the same
// Config).
func (d *Device) RestoreState(st *State) {
	if len(st.banks) != len(d.banks) {
		panic("memdev: RestoreState bank count mismatch")
	}
	d.port.RestoreState(&st.port)
	for i := range d.banks {
		d.banks[i].RestoreState(&st.banks[i])
	}
	d.reads, d.writes = st.reads, st.writes
}
