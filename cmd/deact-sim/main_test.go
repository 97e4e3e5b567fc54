package main

import (
	"bytes"
	"context"
	"io"
	"path/filepath"
	"testing"

	"deact/internal/cli"
)

// tiny is a one-core run small enough for the -short tier.
var tiny = []string{"-bench", "canl", "-scheme", "i-fam", "-warmup", "2000", "-measure", "2000", "-cores", "1", "-v"}

// simulate runs deact-sim with args and returns its stdout.
func simulate(t *testing.T, args ...string) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := run(context.Background(), args, &out, io.Discard); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return out.Bytes()
}

// TestRunDeterministic: the same run twice prints the same bytes.
func TestRunDeterministic(t *testing.T) {
	a, b := simulate(t, tiny...), simulate(t, tiny...)
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatalf("repeat run differs:\n--- first ---\n%s--- second ---\n%s", a, b)
	}
}

// TestTraceReplayMatchesRecording: replaying a recorded trace prints the
// recording run's stdout byte for byte.
func TestTraceReplayMatchesRecording(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.trace")
	rec := simulate(t, append([]string{"-trace-out", path}, tiny...)...)
	rep := simulate(t, append([]string{"-trace-in", path}, tiny...)...)
	if !bytes.Equal(rec, rep) {
		t.Fatalf("replay differs from recording:\n--- recorded ---\n%s--- replayed ---\n%s", rec, rep)
	}
}

// TestUsageErrors: contradictory trace flags and an unknown scheme are
// usage errors (exit 2) that print nothing to stdout.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-trace-in", "a.trace", "-trace-out", "b.trace"},
		{"-scheme", "x-fam"},
	} {
		var out bytes.Buffer
		err := run(context.Background(), args, &out, io.Discard)
		if err == nil || cli.ExitCode(err) != 2 || out.Len() != 0 {
			t.Errorf("%v: err %v, exit %d, stdout %q; want a usage error", args, err, cli.ExitCode(err), out.String())
		}
	}
}
