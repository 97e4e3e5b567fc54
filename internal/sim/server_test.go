package sim

import (
	"encoding/binary"
	"testing"
)

// FuzzServerMatchesResource decodes the input into Acquire steps of four
// bytes each — a clock advance (1 byte), an arrival offset past the clock
// (2 bytes, little-endian) and a service time (1 byte) — and replays them
// against a clock-bound Server and an unpruned Resource, the exact
// interval calendar. The clock trails every arrival, as the engine's does.
// Every grant and the busy time must agree. Offsets up to 64K ps let the
// arrival front run far ahead of the clock, so the Server's calendar holds
// both shallow and deep windows of gaps ending after an arrival. Only the
// first maxFuzzSteps steps are replayed: an unpruned oracle inserts in
// O(n), and longer inputs only slow the fuzzer down.
func FuzzServerMatchesResource(f *testing.F) {
	const maxFuzzSteps = 2048
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{10, 200, 0, 50, 0, 10, 0, 5, 3, 100, 0, 1, 0, 0, 0, 255})
	deep := make([]byte, 0, 4*256)
	for i := 0; i < 256; i++ {
		deep = append(deep, byte(i%3), byte(i*37), byte(i%5), byte(1+i%7))
	}
	f.Add(deep)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4*maxFuzzSteps {
			data = data[:4*maxFuzzSteps]
		}
		clk := &fakeClock{}
		var srv Server
		var oracle Resource
		srv.Bind(clk)
		for i := 0; i+4 <= len(data); i += 4 {
			clk.now += Time(data[i])
			now := clk.now + Time(binary.LittleEndian.Uint16(data[i+1:]))
			svc := Time(data[i+3])
			os, od := oracle.Acquire(now, svc)
			ss, sd := srv.Acquire(now, svc)
			if os != ss || od != sd {
				t.Fatalf("step %d: server (%d,%d) != oracle (%d,%d) for Acquire(%d,%d) at clock %d",
					i/4, ss, sd, os, od, now, svc, clk.now)
			}
		}
		if oracle.BusyTime() != srv.BusyTime() {
			t.Fatalf("busy time: server %d, oracle %d", srv.BusyTime(), oracle.BusyTime())
		}
	})
}
