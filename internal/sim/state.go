// Snapshot state for the engine and its server calendars. The state types
// here (and in the component packages) follow one pattern: a value-type
// XxxState with a CaptureState(*XxxState) that overwrites the target with
// copies of the receiver's state — a snapshot is a plain value, sharing no
// storage with the system it came from — and a RestoreState(*XxxState)
// that copies the state INTO the receiver's own storage. Restore never
// aliases the state's slices, so two components restored from one state
// share nothing.
package sim

// EngineState captures an Engine at a quiescent point: the event queue must
// be empty (every component retired, nothing in flight), which reduces the
// engine to its clock and counters. core.System snapshots exactly at the
// warmup/measure boundary, where it has already verified quiescence.
type EngineState struct {
	now   Time
	seq   uint64
	fired uint64
}

// CaptureState captures the engine into st. It panics if events are pending:
// snapshotting a non-quiescent engine would silently drop the in-flight
// events (and their Handler closures cannot be deep-copied anyway).
func (e *Engine) CaptureState(st *EngineState) {
	if len(e.queue) != 0 {
		panic("sim: CaptureState with pending events; snapshot only at a quiescent point")
	}
	st.now, st.seq, st.fired = e.now, e.seq, e.fired
}

// RestoreState rewinds the engine to st, emptying the queue.
func (e *Engine) RestoreState(st *EngineState) {
	e.now, e.seq, e.fired = st.now, st.seq, st.fired
	for i := range e.queue {
		e.queue[i] = event{}
	}
	e.queue = e.queue[:0]
}

// ServerState captures a Server's reservation calendar.
type ServerState struct {
	tail Time
	busy Time
	gaps []gap
}

// CaptureState captures the server into st, reusing st's gap storage.
func (s *Server) CaptureState(st *ServerState) {
	st.tail, st.busy = s.tail, s.busy
	st.gaps = append(st.gaps[:0], s.gaps...)
}

// RestoreState rewinds the server to st, keeping the bound clock. The gaps
// are copied into the server's own storage.
func (s *Server) RestoreState(st *ServerState) {
	s.tail, s.busy = st.tail, st.busy
	s.gaps = append(s.gaps[:0], st.gaps...)
}
