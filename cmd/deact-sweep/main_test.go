package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"deact/internal/cli"
	"deact/internal/experiments"
)

// goldenScale is the scale the testdata goldens are generated at.
var goldenScale = []string{"-warmup", "2000", "-measure", "2000", "-cores", "1",
	"-benchmarks", "canl,dc", "-parallelism", "2"}

// TestSweepGoldens runs every sweep at the short scale and byte-compares
// its stdout with testdata/<name>.txt.
func TestSweepGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates at the golden scale")
	}
	for _, name := range experiments.SweepNames() {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			args := append([]string{"-sweep", name}, goldenScale...)
			var out bytes.Buffer
			if err := run(context.Background(), args, &out, io.Discard); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("output differs from testdata/%s.txt; if the change is intended, regenerate it with:\n"+
					"  go run ./cmd/deact-sweep %s 2>/dev/null > cmd/deact-sweep/testdata/%s.txt\n--- got ---\n%s",
					name, strings.Join(args, " "), name, out.String())
			}
		})
	}
}

// TestUnknownSweepExitsTwo: a name outside the registry is a usage error
// (exit 2) and runs nothing.
func TestUnknownSweepExitsTwo(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-sweep", "nope"}, &out, io.Discard)
	if err == nil || cli.ExitCode(err) != 2 {
		t.Fatalf("unknown sweep: err %v, exit %d; want exit 2", err, cli.ExitCode(err))
	}
	if out.Len() != 0 {
		t.Errorf("unknown sweep printed %q", out.String())
	}
}

// TestBadBenchmarkNamesExitTwo: an unknown or empty -benchmarks name and
// an unknown -steady/-noisy benchmark are usage errors (exit 2) caught
// before any run, so nothing is printed.
func TestBadBenchmarkNamesExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-benchmarks", "nosuch"},
		{"-benchmarks", "mcf,"},
		{"-steady", "nosuch"},
		{"-noisy", "nosuch"},
	} {
		var out bytes.Buffer
		err := run(context.Background(), append([]string{"-sweep", "stu"}, args...), &out, io.Discard)
		if err == nil || cli.ExitCode(err) != 2 {
			t.Fatalf("%v: err %v, exit %d; want exit 2", args, err, cli.ExitCode(err))
		}
		if !strings.Contains(err.Error(), "nosuch") && !strings.Contains(err.Error(), `""`) {
			t.Errorf("%v: error %q does not name the bad benchmark", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q", args, out.String())
		}
	}
}

// TestSweepNamesMatchRegistry: the accepted names, the usage list in the
// package comment and the committed goldens all equal the registry.
func TestSweepNamesMatchRegistry(t *testing.T) {
	want := experiments.SweepNames()
	if len(want) != 9 {
		t.Fatalf("registry has %d sweeps, want 9: %v", len(want), want)
	}
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	var documented []string
	for _, m := range regexp.MustCompile(`(?m)^//\tdeact-sweep -sweep (\w+) +#`).FindAllSubmatch(src, -1) {
		documented = append(documented, string(m[1]))
	}
	if !slices.Equal(documented, want) {
		t.Errorf("package comment lists %v, registry has %v", documented, want)
	}
	goldens, err := filepath.Glob(filepath.Join("testdata", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var golden []string
	for _, g := range goldens {
		golden = append(golden, strings.TrimSuffix(filepath.Base(g), ".txt"))
	}
	slices.Sort(golden)
	sorted := slices.Clone(want)
	slices.Sort(sorted)
	if !slices.Equal(golden, sorted) {
		t.Errorf("testdata goldens %v, registry has %v", golden, sorted)
	}
}
