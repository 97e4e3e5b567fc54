package trace

import (
	"testing"

	"deact/internal/workload"
)

// FuzzTraceDecode feeds arbitrary bytes to Decode. It never panics, and a
// trace it accepts is sound: every stream replays exactly Ops(i) ops
// without running past its payload, and re-recording those ops through a
// Recorder gives a trace that decodes to the same ops.
func FuzzTraceDecode(f *testing.F) {
	rec, _ := recordOps(f, "mcf", 200)
	enc := rec.Encode()
	f.Add(enc)
	for _, cut := range []int{0, len(magic), len(magic) + 3, len(enc) / 2, len(enc) - 1} {
		f.Add(enc[:cut])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(data)
		if err != nil {
			return
		}
		again := NewRecorder(tr.Benchmark(), tr.Streams())
		ops := make([][]workload.Op, tr.Streams())
		for i := range ops {
			rp := tr.Source(i)
			src := again.Tap(i, rp)
			for n := uint64(0); n < tr.Ops(i); n++ {
				ops[i] = append(ops[i], src.Next())
			}
			if end := rp.State().Cursor; end != uint64(len(tr.streams[i].data)) {
				t.Fatalf("stream %d: %d ops ended at byte %d of %d", i, tr.Ops(i), end, len(tr.streams[i].data))
			}
		}
		re, err := Decode(again.Encode())
		if err != nil {
			t.Fatalf("re-recorded trace does not decode: %v", err)
		}
		if re.Benchmark() != tr.Benchmark() || re.Streams() != tr.Streams() {
			t.Fatalf("re-recorded metadata %q/%d, want %q/%d", re.Benchmark(), re.Streams(), tr.Benchmark(), tr.Streams())
		}
		for i, want := range ops {
			if re.Ops(i) != tr.Ops(i) {
				t.Fatalf("stream %d: re-recorded %d ops, want %d", i, re.Ops(i), tr.Ops(i))
			}
			rp := re.Source(i)
			for j, op := range want {
				if got := rp.Next(); got != op {
					t.Fatalf("stream %d op %d: re-recorded %+v, want %+v", i, j, got, op)
				}
			}
		}
	})
}
