package node

import (
	"testing"

	"deact/internal/addr"
	"deact/internal/workload"
)

// pfOp is op() with a PC stamp, the trigger the prefetcher keys on.
func pfOp(a addr.VAddr, pc uint64) workload.Op {
	return workload.Op{Addr: a, PC: pc}
}

// TestPrefetcherObserve: the delta table confirms a stream only after
// Threshold consecutive same-delta accesses, resets on a delta change or a
// PC collision, and ignores repeats of the same block.
func TestPrefetcherObserve(t *testing.T) {
	p := newPrefetcher(PrefetchConfig{Streams: 16, Degree: 2, Threshold: 2})
	const pc = 0x40_0010
	if d := p.observe(pc, 100); d != 0 {
		t.Fatalf("first touch confirmed delta %d", d)
	}
	if d := p.observe(pc, 102); d != 0 {
		t.Fatalf("single stride confirmed delta %d", d)
	}
	if d := p.observe(pc, 104); d != 2 {
		t.Fatalf("second same stride: delta %d, want 2", d)
	}
	if d := p.observe(pc, 106); d != 2 {
		t.Fatalf("confirmed stream lost: delta %d, want 2", d)
	}
	// Same block twice: no delta, no state change.
	if d := p.observe(pc, 106); d != 0 {
		t.Fatalf("zero delta confirmed %d", d)
	}
	if d := p.observe(pc, 108); d != 2 {
		t.Fatalf("stream should survive a repeat: delta %d, want 2", d)
	}
	// Delta change: back to training.
	if d := p.observe(pc, 115); d != 0 {
		t.Fatalf("changed stride stayed confirmed: %d", d)
	}
	if d := p.observe(pc, 122); d != 7 {
		t.Fatalf("retrained stride: delta %d, want 7", d)
	}
	// A different PC mapping to the same slot evicts the entry.
	other := pc + uint64(len(p.tbl)) // same index, different tag
	if d := p.observe(other, 500); d != 0 {
		t.Fatal("colliding PC inherited a stream")
	}
	if d := p.observe(pc, 130); d != 0 {
		t.Fatal("evicted PC still confirmed")
	}
	// Negative strides confirm too.
	const pc2 = 0x40_0020
	p.observe(pc2, 1000)
	p.observe(pc2, 996)
	if d := p.observe(pc2, 992); d != -4 {
		t.Fatalf("descending stride: delta %d, want -4", d)
	}
}

// TestPrefetcherDefaults: zero Degree/Threshold resolve to 2, Streams
// rounds up to a power of two.
func TestPrefetcherDefaults(t *testing.T) {
	p := newPrefetcher(PrefetchConfig{Streams: 48})
	if len(p.tbl) != 64 || p.mask != 63 {
		t.Errorf("table size %d mask %d, want 64/63", len(p.tbl), p.mask)
	}
	if p.degree != 2 || p.threshold != 2 {
		t.Errorf("defaults degree=%d threshold=%d, want 2/2", p.degree, p.threshold)
	}
	if err := (PrefetchConfig{Streams: -1}).Validate(); err == nil {
		t.Error("negative Streams validated")
	}
	if (PrefetchConfig{}).Enabled() {
		t.Error("zero config enabled")
	}
}

// TestPrefetchDisabledByDefault: a node built with the zero PrefetchConfig
// has no table and records nothing, even for PC-stamped accesses.
func TestPrefetchDisabledByDefault(t *testing.T) {
	r := newRig(t, DeACTN)
	if r.n.pf != nil {
		t.Fatal("prefetcher built without configuration")
	}
	for i := 0; i < 20; i++ {
		va := addr.VAddr(0x10_0000_0000 + uint64(i)*addr.BlockSize)
		if _, err := r.n.Access(0, 0, pfOp(va, 0x40_0010)); err != nil {
			t.Fatal(err)
		}
	}
	if st := r.n.Stats().Prefetch; st != (PrefetchStats{}) {
		t.Fatalf("disabled prefetcher counted: %+v", st)
	}
}

// TestPrefetchIssuesOnStream: a strided PC-stable stream trains the table
// and injects prefetch traffic that shows up as real device reads.
func TestPrefetchIssuesOnStream(t *testing.T) {
	cfg := testConfig(1, DeACTN)
	cfg.Prefetch = PrefetchConfig{Streams: 16, Degree: 2, Threshold: 2}
	r := newRig(t, DeACTN)
	n, err := New(nil, cfg, r.brk, r.n.fab, r.fam)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		va := addr.VAddr(0x10_0000_0000 + uint64(i)*addr.BlockSize)
		if _, err := n.Access(0, 0, pfOp(va, 0x40_0010)); err != nil {
			t.Fatal(err)
		}
	}
	st := n.Stats().Prefetch
	if st.Observed != 32 {
		t.Fatalf("Observed=%d, want 32", st.Observed)
	}
	if st.Issued == 0 {
		t.Fatalf("no prefetches issued on a unit-stride stream: %+v", st)
	}
	// PC 0 never trains.
	before := n.Stats().Prefetch.Observed
	if _, err := n.Access(0, 0, op(0x10_0000_0000, false)); err != nil {
		t.Fatal(err)
	}
	if n.Stats().Prefetch.Observed != before {
		t.Fatal("PC 0 access was observed")
	}
}

// TestPrefetchStopsAtPageBoundary: candidates crossing the demand access's
// NP page are dropped and counted, never fetched.
func TestPrefetchStopsAtPageBoundary(t *testing.T) {
	cfg := testConfig(1, EFAM)
	cfg.Prefetch = PrefetchConfig{Streams: 16, Degree: 8, Threshold: 1}
	r := newRig(t, EFAM)
	n, err := New(nil, cfg, r.brk, r.n.fab, r.fam)
	if err != nil {
		t.Fatal(err)
	}
	// Walk one virtual page in block strides; with degree 8 the candidates
	// run past the 64-block page well before the demand stream does.
	for i := 0; i < int(addr.PageSize/addr.BlockSize); i++ {
		va := addr.VAddr(0x10_0000_0000 + uint64(i)*addr.BlockSize)
		if _, err := n.Access(0, 0, pfOp(va, 0x40_0010)); err != nil {
			t.Fatal(err)
		}
	}
	st := n.Stats().Prefetch
	if st.PageStops == 0 {
		t.Fatalf("no page stops on a page-crossing stream: %+v", st)
	}
}

// TestPrefetchStateRoundTrip: the delta table is part of node snapshot
// state — capture, mutate, restore brings back the captured streams.
func TestPrefetchStateRoundTrip(t *testing.T) {
	cfg := testConfig(1, DeACTN)
	cfg.Prefetch = PrefetchConfig{Streams: 16, Degree: 2, Threshold: 2}
	r := newRig(t, DeACTN)
	n, err := New(nil, cfg, r.brk, r.n.fab, r.fam)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		va := addr.VAddr(0x10_0000_0000 + uint64(i)*addr.BlockSize)
		if _, err := n.Access(0, 0, pfOp(va, 0x40_0010)); err != nil {
			t.Fatal(err)
		}
	}
	var st State
	n.CaptureState(&st)
	want := append([]pfEntry(nil), n.pf.tbl...)

	// Diverge: train a different PC, then restore.
	for i := 0; i < 8; i++ {
		va := addr.VAddr(0x10_0004_0000 + uint64(i)*2*addr.BlockSize)
		if _, err := n.Access(0, 0, pfOp(va, 0x40_0020)); err != nil {
			t.Fatal(err)
		}
	}
	n.RestoreState(&st)
	for i, e := range n.pf.tbl {
		if e != want[i] {
			t.Fatalf("entry %d after restore: %+v, want %+v", i, e, want[i])
		}
	}
}

// BenchmarkPrefetcher measures the per-access training cost; ReportAllocs
// plus the CI -benchmem smoke pin it at 0 allocs/op.
func BenchmarkPrefetcher(b *testing.B) {
	p := newPrefetcher(PrefetchConfig{Streams: 64, Degree: 4, Threshold: 2})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.observe(uint64(0x40_0010+(i&7)*16), uint64(i))
	}
}
