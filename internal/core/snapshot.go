package core

import (
	"fmt"

	"deact/internal/broker"
	"deact/internal/cpu"
	"deact/internal/fabric"
	"deact/internal/memdev"
	"deact/internal/node"
	"deact/internal/sim"
)

// Snapshot is a deep copy of a System's mutable simulation state, captured
// at the warmup/measure boundary — the one quiescent point where the event
// queue is empty and every core has retired, so the whole system reduces to
// plain data: cache tags and LRU rank words, TLB/STU/ACM contents,
// translation-cache lines, the page-table arenas, the broker's ownership
// and free-pool state, per-node direct-backing tables, core counters and
// generator stream positions, RNG draw counts, device and link calendars,
// and the engine clock.
//
// A snapshot shares no storage with the system it came from (or with any
// system it is restored into), so one warmed-up prefix can fork many
// measured runs: each fork restores the snapshot into a freshly built
// System and proceeds bit-identically to a cold run that simulated the
// warmup itself. Restoring is guarded by the config's WarmupFingerprint.
type Snapshot struct {
	// warmFP is Config.WarmupFingerprint() of the captured system: the
	// identity of everything that shaped the state, which is every exported
	// field except the measured-phase length.
	warmFP string

	engine sim.EngineState
	fab    fabric.State
	fam    memdev.State
	brk    broker.ShardedState
	nodes  []node.State
	cores  [][]cpu.State
}

// WarmupFingerprint returns the fingerprint of the configuration the
// snapshot was captured under. Restore accepts the snapshot only into a
// system whose config fingerprints equal.
func (sn *Snapshot) WarmupFingerprint() string { return sn.warmFP }

// Snapshot captures the system into a fresh Snapshot. The system must be
// quiescent — in practice that means calling it from a WithWarmupHook
// callback, which Run invokes exactly at the warmup/measure boundary;
// capturing mid-flight panics (the in-flight events cannot be copied).
func (s *System) Snapshot() *Snapshot {
	sn := &Snapshot{
		warmFP: s.cfg.WarmupFingerprint(),
		nodes:  make([]node.State, len(s.nodes)),
		cores:  make([][]cpu.State, len(s.cores)),
	}
	s.engine.CaptureState(&sn.engine)
	s.fab.CaptureState(&sn.fab)
	s.fam.CaptureState(&sn.fam)
	s.brk.CaptureState(&sn.brk)
	for i, n := range s.nodes {
		n.CaptureState(&sn.nodes[i])
	}
	for ni, row := range s.cores {
		sn.cores[ni] = make([]cpu.State, len(row))
		for ci, c := range row {
			c.CaptureState(&sn.cores[ni][ci])
		}
	}
	return sn
}

// Restore rewinds the system to sn's warmup/measure boundary. The system
// must be freshly built from a config whose WarmupFingerprint matches the
// captured one; everything mutable is overwritten, nothing is aliased, and
// a subsequent measured phase is bit-identical to one run on the system the
// snapshot was captured from. Run calls this automatically for systems
// built WithSnapshot.
func (s *System) Restore(sn *Snapshot) error {
	if got := s.cfg.WarmupFingerprint(); got != sn.warmFP {
		return fmt.Errorf("core: Restore: config warmup fingerprint %s does not match snapshot's %s", got, sn.warmFP)
	}
	if len(sn.nodes) != len(s.nodes) || len(sn.cores) != len(s.cores) {
		return fmt.Errorf("core: Restore: system shape mismatch")
	}
	s.engine.RestoreState(&sn.engine)
	s.fab.RestoreState(&sn.fab)
	s.fam.RestoreState(&sn.fam)
	if err := s.brk.RestoreState(&sn.brk); err != nil {
		return err
	}
	for i, n := range s.nodes {
		n.RestoreState(&sn.nodes[i])
	}
	for ni, row := range s.cores {
		for ci, c := range row {
			c.RestoreState(&sn.cores[ni][ci])
		}
	}
	return nil
}
