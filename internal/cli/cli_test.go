package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"deact/internal/experiments"
	"deact/internal/workload"
)

// TestFlagGroupsParse pins the shared flag surface: names, defaults and
// the Options assembly, including opening the result store for -store.
func TestFlagGroupsParse(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	sc := ScaleFlags(fs, 80_000, 60_000, 2)
	rn := RunnerFlags(fs)
	pf := ProfilingFlags(fs, "the run")
	dir := filepath.Join(t.TempDir(), "store")
	if err := fs.Parse([]string{
		"-warmup", "1000", "-measure", "2000", "-cores", "3", "-seed", "7",
		"-benchmarks", "mcf,sp", "-parallelism", "2", "-share-warmup",
		"-store", dir,
	}); err != nil {
		t.Fatal(err)
	}
	opts, err := rn.Options(sc)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Warmup != 1000 || opts.Measure != 2000 || opts.Cores != 3 || opts.Seed != 7 {
		t.Fatalf("scale flags not threaded into Options: %+v", opts)
	}
	if !reflect.DeepEqual(opts.Benchmarks, []string{"mcf", "sp"}) {
		t.Fatalf("benchmarks = %v", opts.Benchmarks)
	}
	if opts.Parallelism != 2 || !opts.ShareWarmup {
		t.Fatalf("runner flags not threaded into Options: %+v", opts)
	}
	if opts.Store == nil {
		t.Fatal("-store did not open a result store")
	}
	if pf.CPU != "" || pf.Mem != "" {
		t.Fatalf("profiling flags defaulted on: %+v", pf)
	}
}

// TestFlagGroupDefaults: per-command defaults land, the store stays off,
// and the benchmark subset stays nil (meaning "all").
func TestFlagGroupDefaults(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	sc := ScaleFlags(fs, 60_000, 50_000, 4)
	rn := RunnerFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	opts, err := rn.Options(sc)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Warmup != 60_000 || opts.Measure != 50_000 || opts.Cores != 4 || opts.Seed != 42 {
		t.Fatalf("defaults not honored: %+v", opts)
	}
	if opts.Benchmarks != nil || opts.Store != nil {
		t.Fatalf("optional knobs defaulted on: %+v", opts)
	}
}

// TestSeedDefaultIsExperimentsDefault: -seed has one source, the seed
// experiments.DefaultOptions documents for EXPERIMENTS.md.
func TestSeedDefaultIsExperimentsDefault(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	sc := ScaleFlags(fs, 1, 1, 1)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	want := experiments.DefaultOptions().Seed
	if sc.Seed != want {
		t.Fatalf("-seed default %d, experiments.DefaultOptions().Seed %d", sc.Seed, want)
	}
	if got := fs.Lookup("seed").DefValue; got != fmt.Sprint(want) {
		t.Fatalf("-seed help default %q, want %d", got, want)
	}
}

// TestBenchmarksTrimmedAndChecked: -benchmarks names are trimmed, and an
// empty or unknown name fails Options with ErrUnknownBenchmark and the
// catalog's names, before any store is opened or run submitted.
// TestExitCode: a usage error exits 2 with its message intact and stays
// matchable by errors.Is; any other error exits 1.
func TestExitCode(t *testing.T) {
	err := Usage(fmt.Errorf("-benchmarks: %w", ErrUnknownBenchmark))
	if got := ExitCode(err); got != 2 {
		t.Errorf("usage error exit %d, want 2", got)
	}
	if err.Error() != "-benchmarks: unknown benchmark" || !errors.Is(err, ErrUnknownBenchmark) {
		t.Errorf("usage error %q lost its wrapped error", err)
	}
	if got := ExitCode(fmt.Errorf("run: %w", err)); got != 2 {
		t.Errorf("wrapped usage error exit %d, want 2", got)
	}
	if got := ExitCode(errors.New("simulation failed")); got != 1 {
		t.Errorf("runtime error exit %d, want 1", got)
	}
}

func TestBenchmarksTrimmedAndChecked(t *testing.T) {
	parse := func(list string) (experiments.Options, error) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		sc := ScaleFlags(fs, 1, 1, 1)
		rn := RunnerFlags(fs)
		if err := fs.Parse([]string{"-benchmarks", list}); err != nil {
			t.Fatal(err)
		}
		return rn.Options(sc)
	}
	opts, err := parse(" mcf, sp ,dc")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(opts.Benchmarks, []string{"mcf", "sp", "dc"}) {
		t.Fatalf("benchmarks = %q", opts.Benchmarks)
	}
	for _, bad := range []string{"nosuch", "mcf,,sp", "mcf,", " ", "mcf,Sp"} {
		_, err := parse(bad)
		if !errors.Is(err, ErrUnknownBenchmark) {
			t.Fatalf("-benchmarks %q: err %v, want ErrUnknownBenchmark", bad, err)
		}
		if !strings.Contains(err.Error(), strings.Join(workload.Names(), ", ")) {
			t.Errorf("-benchmarks %q: error %q does not list the catalog", bad, err)
		}
	}
}

// TestProgressPrinterCached: the progress line surfaces a running cached
// tally once any run is served from the store, and stays silent before.
func TestProgressPrinterCached(t *testing.T) {
	var buf strings.Builder
	p := ProgressPrinter(&buf)

	p(experiments.RunInfo{Completed: 1, Submitted: 3})
	if got := buf.String(); strings.Contains(got, "cached") {
		t.Fatalf("cached tally shown before any cached run: %q", got)
	}
	if !strings.Contains(buf.String(), "runs: 1/3 completed") {
		t.Fatalf("progress line missing: %q", buf.String())
	}

	buf.Reset()
	p(experiments.RunInfo{Completed: 2, Submitted: 3, Cached: true})
	if got := buf.String(); !strings.Contains(got, "runs: 2/3 completed (1 cached)") {
		t.Fatalf("cached tally missing: %q", got)
	}

	// The tally is cumulative and persists on later uncached updates.
	buf.Reset()
	p(experiments.RunInfo{Completed: 3, Submitted: 3})
	if got := buf.String(); !strings.Contains(got, "runs: 3/3 completed (1 cached)") {
		t.Fatalf("cumulative tally wrong: %q", got)
	}
}
