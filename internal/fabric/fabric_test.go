package fabric

import (
	"testing"

	"deact/internal/sim"
)

func TestValidate(t *testing.T) {
	if err := (Config{Latency: 0}).Validate(); err == nil {
		t.Fatal("zero latency accepted")
	}
	if err := (Config{Latency: sim.NS(500)}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTraverseLatency(t *testing.T) {
	f := New(Config{Latency: sim.NS(500), PacketTime: sim.NS(2)})
	if got := f.Traverse(0, ToFAM); got != sim.NS(502) {
		t.Fatalf("arrive = %v, want 502ns", got)
	}
	if f.Packets() != 1 || f.Latency() != sim.NS(500) {
		t.Fatal("accessors wrong")
	}
}

func TestContentionSerializes(t *testing.T) {
	f := New(Config{Latency: sim.NS(500), PacketTime: sim.NS(10)})
	a1 := f.Traverse(0, ToFAM)
	a2 := f.Traverse(0, ToFAM) // concurrent packet queues behind the first
	if a2 != a1+sim.NS(10) {
		t.Fatalf("no contention: a1=%v a2=%v", a1, a2)
	}
}

// TestRoundTrip: a request toward FAM, remote service, then the response
// back to the node — the pair of traversals every remote access makes.
func TestRoundTrip(t *testing.T) {
	f := New(Config{Latency: sim.NS(500), PacketTime: 0})
	remoteAt := f.Traverse(sim.NS(100), ToFAM)
	if remoteAt != sim.NS(600) {
		t.Fatalf("remote served at %v, want 600ns", remoteAt)
	}
	if done := f.Traverse(remoteAt+sim.NS(60), ToNode); done != sim.NS(1160) {
		t.Fatalf("round trip done %v, want 1160ns", done)
	}
	if f.Packets() != 2 {
		t.Fatalf("packets = %d, want 2", f.Packets())
	}
}

func TestZeroPacketTimeNoContention(t *testing.T) {
	f := New(Config{Latency: sim.NS(100)})
	a1 := f.Traverse(0, ToFAM)
	a2 := f.Traverse(0, ToFAM)
	if a1 != a2 {
		t.Fatal("zero packet time must not serialize")
	}
}

func TestDirectionsAreIndependentLinks(t *testing.T) {
	// A response reservation far in the future must not delay a request
	// issued in the gap — the bug that serialized whole nodes when both
	// directions shared one reservation window.
	f := New(Config{Latency: sim.NS(500), PacketTime: sim.NS(10)})
	f.Traverse(sim.NS(1000), ToNode) // response packet at t=1000
	req := f.Traverse(0, ToFAM)      // request at t=0
	if req != sim.NS(510) {
		t.Fatalf("request delayed by response-link reservation: %v", req)
	}
	if f.BusyTime() != sim.NS(20) {
		t.Fatalf("busy = %v", f.BusyTime())
	}
}
