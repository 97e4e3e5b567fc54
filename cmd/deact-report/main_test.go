package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deact/internal/cli"
	"deact/internal/experiments"
)

// TestGenerateCancelledWritesNothing: a SIGINT-style cancellation must
// surface context.Canceled (→ nonzero exit in main) and must not leave a
// partial output file behind.
func TestGenerateCancelledWritesNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the SIGINT already happened
	out := filepath.Join(t.TempDir(), "EXPERIMENTS.md")
	opts := experiments.Options{Warmup: 1_000, Measure: 1_000, Cores: 1, Seed: 42,
		Benchmarks: []string{"mcf"}, Parallelism: 1}
	err := generate(ctx, opts, out)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if _, statErr := os.Stat(out); !os.IsNotExist(statErr) {
		t.Fatalf("cancelled run left an output file behind (stat err: %v)", statErr)
	}
}

// TestGenerateWritesOnSuccess: the buffered path still produces the file.
func TestGenerateWritesOnSuccess(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny report still simulates")
	}
	out := filepath.Join(t.TempDir(), "EXPERIMENTS.md")
	opts := experiments.Options{Warmup: 2_000, Measure: 2_000, Cores: 1, Seed: 42,
		Benchmarks: []string{"mcf", "canl", "dc"}, Parallelism: 2}
	if err := generate(context.Background(), opts, out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty report written")
	}
}

// TestBadBenchmarkNamesExitTwo: an empty or unknown -benchmarks name is a
// usage error (exit 2) caught before any profile is started or run
// submitted, so no output file and no profile are written.
func TestBadBenchmarkNamesExitTwo(t *testing.T) {
	for _, names := range []string{"mcf,,dc", "nosuch"} {
		dir := t.TempDir()
		out, cpu := filepath.Join(dir, "EXPERIMENTS.md"), filepath.Join(dir, "cpu.prof")
		err := run(context.Background(), []string{"-benchmarks", names, "-out", out, "-cpuprofile", cpu})
		if err == nil || cli.ExitCode(err) != 2 {
			t.Fatalf("-benchmarks %q: err %v, exit %d; want exit 2", names, err, cli.ExitCode(err))
		}
		for _, f := range []string{out, cpu} {
			if _, statErr := os.Stat(f); !os.IsNotExist(statErr) {
				t.Errorf("-benchmarks %q wrote %s (stat err: %v)", names, f, statErr)
			}
		}
	}
}

// goldenScale is the short scale both committed report goldens are
// generated at (the CI golden-report job uses the same flags).
var goldenScale = []string{"-warmup", "4000", "-measure", "4000", "-cores", "1",
	"-benchmarks", "mcf,canl,sp,dc", "-parallelism", "2"}

// TestReportGoldens regenerates the short-scale reports through the
// command's own flag parsing and byte-compares them with the committed
// goldens: the base report with the capacity section, and the same report
// with every opt-in section (capacity, prefetch, MLP) appended.
func TestReportGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates at the golden scale")
	}
	for _, tc := range []struct {
		golden   string
		sections []string
	}{
		{"golden-report-short.md", []string{"-capacity"}},
		{"golden-report-short-extras.md", []string{"-capacity", "-prefetch", "-mlp"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", "testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			out := filepath.Join(t.TempDir(), "report.md")
			args := append(append(append([]string{}, goldenScale...), tc.sections...), "-out", out)
			if err := run(context.Background(), args); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("report differs from testdata/%s; if the change is intended, regenerate it with:\n"+
					"  go run ./cmd/deact-report -out testdata/%s %s",
					tc.golden, tc.golden, strings.Join(args[:len(args)-2], " "))
			}
		})
	}
}
