package broker

import (
	"fmt"

	"deact/internal/addr"
	"deact/internal/arena"
)

// shardSeedStride separates the shard RNG streams. Shard 0 keeps the base
// seed unchanged so a 1-shard Sharded draws the exact placement sequence an
// unsharded Broker draws — the byte-identity contract the golden report
// depends on. The stride is far outside the seed offsets other components
// derive (nodes: +id·1000, translators: +101, generators: +ni·100+ci).
const shardSeedStride = 1_000_003

// Sharded partitions the usable FAM pool across independent Broker shards,
// each owning a contiguous page range with its own placement RNG, owner
// table, ACM metadata store and FAM page tables. Nodes map to shards
// round-robin by node ID, so allocation metadata is no longer one global
// table — the seam that lets datacenter-scale configurations (hundreds of
// nodes) grow without a single ownership bottleneck in the simulator.
//
// With one shard, Sharded is byte-identical to a plain Broker: the same
// seed, the same partition, the same draw sequence.
type Sharded struct {
	shards []*Broker
}

// NewSharded builds n shards over layout's usable pool, drawing each
// shard's tables (and the shard slice itself) from a (nil allocates
// normally). Shard i owns pages [i·usable/n, (i+1)·usable/n), so
// partitions differ in size by at most one page and cover the pool
// exactly. n ≤ 0 normalizes to 1. Sharded is returned by value — it is one
// slice header — so the common embed-in-a-System case adds no allocation
// over the plain Broker it replaces.
func NewSharded(a *arena.Arena, layout addr.Layout, seed int64, n int) (Sharded, error) {
	if err := layout.Validate(); err != nil {
		return Sharded{}, err
	}
	if n <= 0 {
		n = 1
	}
	usable := layout.UsableFAMPages()
	if uint64(n) > usable {
		return Sharded{}, fmt.Errorf("broker: %d shards over %d usable pages", n, usable)
	}
	s := Sharded{shards: arena.Slice[*Broker](a, "broker.shards", n)}
	for i := 0; i < n; i++ {
		base := usable * uint64(i) / uint64(n)
		end := usable * uint64(i+1) / uint64(n)
		s.shards[i] = newRange(a, layout, seed+int64(i)*shardSeedStride, base, end-base)
	}
	return s, nil
}

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// Shard returns shard i.
func (s *Sharded) Shard(i int) *Broker { return s.shards[i] }

// For returns the shard serving the given node. Node IDs start at 1 (the
// broker reserves 0 for itself); they map to shards round-robin so
// consecutive nodes land on different shards. Node 0 — broker-owned
// traffic — is served by shard 0.
func (s *Sharded) For(node uint16) *Broker {
	if node == 0 {
		return s.shards[0]
	}
	return s.shards[int(node-1)%len(s.shards)]
}

// Recycle returns every shard's large tables and the shard slice to a.
func (s *Sharded) Recycle(a *arena.Arena) {
	for _, b := range s.shards {
		b.Recycle(a)
	}
	arena.Release(a, "broker.shards", s.shards)
	s.shards = nil
}

// ShardedState is the captured state of every shard, for
// core.System.Snapshot.
type ShardedState struct {
	shards []State
}

// CaptureState captures every shard into st.
func (s *Sharded) CaptureState(st *ShardedState) {
	st.shards = make([]State, len(s.shards))
	for i, b := range s.shards {
		b.CaptureState(&st.shards[i])
	}
}

// RestoreState rewinds every shard to st.
func (s *Sharded) RestoreState(st *ShardedState) error {
	if len(st.shards) != len(s.shards) {
		return fmt.Errorf("broker: restoring %d shard states into %d shards", len(st.shards), len(s.shards))
	}
	for i, b := range s.shards {
		if err := b.RestoreState(&st.shards[i]); err != nil {
			return fmt.Errorf("broker: shard %d: %w", i, err)
		}
	}
	return nil
}
