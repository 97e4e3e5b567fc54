package experiments

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"deact/internal/core"
)

// schedOptions is a deliberately tiny scale: scheduler tests exercise
// concurrency and determinism, not simulation fidelity.
func schedOptions(parallelism int) Options {
	return Options{
		Warmup: 3_000, Measure: 3_000, Cores: 1, Seed: 42,
		Benchmarks:  []string{"mcf", "canl", "dc"},
		Parallelism: parallelism,
	}
}

// schedBatch is a config mix with deliberate duplicates (the Figure 3/12
// sharing pattern) and mutated configurations.
func schedBatch(r *Runner) []core.Config {
	stu512 := func(c *core.Config) { c.STUEntries = 512 }
	return []core.Config{
		r.config(core.EFAM, "mcf", nil),
		r.config(core.IFAM, "mcf", nil),
		r.config(core.EFAM, "mcf", nil), // duplicate of request 0
		r.config(core.DeACTN, "canl", nil),
		r.config(core.DeACTN, "canl", stu512),
		r.config(core.IFAM, "canl", stu512),
		r.config(core.DeACTN, "canl", nil), // duplicate of request 3
		r.config(core.DeACTW, "dc", nil),
	}
}

// TestParallelMatchesSerial is the scheduler's core contract: a parallel
// runner produces the same core.Result values, in the same order, and the
// same CachedRuns() count as the serial (Parallelism = 1) runner.
func TestParallelMatchesSerial(t *testing.T) {
	ctx := context.Background()
	serial := New(schedOptions(1))
	parallel := New(schedOptions(8))

	rs, err := serial.RunAll(ctx, schedBatch(serial))
	if err != nil {
		t.Fatal(err)
	}
	rp, err := parallel.RunAll(ctx, schedBatch(parallel))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs, rp) {
		t.Fatalf("parallel results differ from serial:\nserial:   %+v\nparallel: %+v", rs, rp)
	}
	if serial.CachedRuns() != parallel.CachedRuns() {
		t.Fatalf("CachedRuns: serial %d, parallel %d", serial.CachedRuns(), parallel.CachedRuns())
	}
}

// TestRunAllDeduplicates: duplicate configurations — both within one batch
// and across batches — must simulate each distinct fingerprint exactly
// once.
func TestRunAllDeduplicates(t *testing.T) {
	ctx := context.Background()
	r := New(schedOptions(4))
	batch := schedBatch(r)
	res, err := r.RunAll(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	const distinct = 6 // 8 requests, 2 duplicates
	if got := r.CachedRuns(); got != distinct {
		t.Fatalf("CachedRuns = %d, want %d", got, distinct)
	}
	if !reflect.DeepEqual(res[0], res[2]) || !reflect.DeepEqual(res[3], res[6]) {
		t.Fatal("duplicate requests returned different results")
	}
	if done, sub := r.Progress(); done != distinct || sub != distinct {
		t.Fatalf("Progress = %d/%d, want %d/%d", done, sub, distinct, distinct)
	}
	// Resubmitting the whole batch must be pure cache hits.
	res2, err := r.RunAll(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if r.CachedRuns() != distinct {
		t.Fatalf("resubmission grew CachedRuns to %d", r.CachedRuns())
	}
	if !reflect.DeepEqual(res, res2) {
		t.Fatal("resubmitted batch returned different results")
	}
}

// TestRunAllErrorDeterministic: the reported error is the first failing
// request in submission order, whatever the execution interleaving — and
// invalid-config failures surface core.ErrInvalidConfig.
func TestRunAllErrorDeterministic(t *testing.T) {
	r := New(schedOptions(4))
	bad := func(c *core.Config) { c.CoresPerNode = -1 }
	cfgs := []core.Config{
		r.config(core.EFAM, "mcf", nil),
		r.config(core.IFAM, "mcf", bad),
		r.config(core.DeACTN, "canl", bad),
	}
	_, err := r.RunAll(context.Background(), cfgs)
	if err == nil {
		t.Fatal("expected an error from the invalid configs")
	}
	want := "experiments: mcf under I-FAM"
	if !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("error is not the first failing request in order: %v", err)
	}
}

// TestConcurrentGenerators drives two paper grids over one shared
// runner from separate goroutines with Parallelism > 1 — the -race
// exercise for the dedup map and worker pool.
func TestConcurrentGenerators(t *testing.T) {
	ctx := context.Background()
	r := New(schedOptions(4))
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); _, errs[0] = r.RunSweep(ctx, "Figure4") }()
	go func() { defer wg.Done(); _, errs[1] = r.RunSweep(ctx, "Figure11") }()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Figures 4 and 11 share the I-FAM default runs: 4 wants E-FAM +
	// I-FAM, 11 wants I-FAM + DeACT-W + DeACT-N → 4 schemes × 3 benches.
	if got := r.CachedRuns(); got != 12 {
		t.Fatalf("CachedRuns = %d, want 12 (shared runs must dedup)", got)
	}
}

// TestReportByteIdenticalAcrossParallelism is the acceptance check for
// cmd/deact-report: the full report must be byte-identical between the
// serial runner and a maximally parallel one at the same seed.
func TestReportByteIdenticalAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("full report is slow")
	}
	ctx := context.Background()
	o := Options{Warmup: 8_000, Measure: 8_000, Cores: 1, Seed: 42,
		Benchmarks: []string{"canl", "sp", "pf", "dc"}}
	var serial, parallel bytes.Buffer
	o.Parallelism = 1
	if err := Report(ctx, &serial, o); err != nil {
		t.Fatal(err)
	}
	o.Parallelism = 8
	if err := Report(ctx, &parallel, o); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Fatalf("report differs between Parallelism=1 and Parallelism=8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial.String(), parallel.String())
	}
}
