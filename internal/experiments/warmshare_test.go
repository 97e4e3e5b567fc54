package experiments

import (
	"context"
	"errors"
	"io"
	"reflect"
	"sync"
	"testing"

	"deact/internal/core"
)

// warmShareBatch is a MeasureInstructions sweep — the shape warmup sharing
// exists for: every measure length of one (scheme, benchmark, warmup) point
// shares a warmup fingerprint, so one group leader warms up and the rest
// fork. Two schemes and a seed variant keep several distinct groups live;
// every group has at least one follower, so every leader captures.
func warmShareBatch(r *Runner) []core.Config {
	measure := func(n uint64) func(*core.Config) {
		return func(c *core.Config) { c.MeasureInstructions = n }
	}
	seed7 := func(n uint64) func(*core.Config) {
		return func(c *core.Config) { c.Seed = 7; c.MeasureInstructions = n }
	}
	return []core.Config{
		r.config(core.IFAM, "mcf", measure(2_000)),
		r.config(core.IFAM, "mcf", measure(3_000)),
		r.config(core.IFAM, "mcf", measure(4_000)),
		r.config(core.DeACTN, "canl", measure(2_000)),
		r.config(core.DeACTN, "canl", measure(3_000)),
		r.config(core.IFAM, "mcf", seed7(2_000)),
		r.config(core.IFAM, "mcf", seed7(3_000)),
		r.config(core.IFAM, "mcf", measure(2_000)), // duplicate of request 0
	}
}

// forkCounter returns an OnRunDone hook counting forked runs, and the
// counter it increments (the runner serializes hook calls).
func forkCounter() (func(RunInfo), *int) {
	n := new(int)
	return func(ri RunInfo) {
		if ri.Forked {
			*n++
		}
	}, n
}

// TestSharedWarmupByteIdentical: a ShareWarmup runner must return exactly
// the results of a cold runner — at every Parallelism setting, including
// the strictly serial one where the leader fully finishes before any
// follower forks, and the concurrent ones where followers fork while the
// leader's measured phase is still running.
func TestSharedWarmupByteIdentical(t *testing.T) {
	ctx := context.Background()
	cold := New(schedOptions(2))
	want, err := cold.RunAll(ctx, warmShareBatch(cold))
	if err != nil {
		t.Fatal(err)
	}

	for _, par := range []int{1, 2, 4} {
		o := schedOptions(par)
		o.ShareWarmup = true
		var forked *int
		o.OnRunDone, forked = forkCounter()
		r := New(o)
		got, err := r.RunAll(ctx, warmShareBatch(r))
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("parallelism %d: shared-warmup results diverged from cold runner", par)
		}
		// The sweep has 3 distinct warmup fingerprints (mcf/IFAM,
		// canl/DeACTN, mcf/IFAM/seed7 — and the duplicate config dedups
		// before grouping). RunAll registers the batch before starting
		// it, so every leader sees its followers unresolved at its warmup
		// boundary: every non-leader must have forked.
		if *forked != 4 {
			t.Fatalf("parallelism %d: %d forked runs, want 4", par, *forked)
		}
		// Finished entries stay in the dedup cache; none may still hold
		// its warmup group, or every captured snapshot would outlive the
		// batch for the Runner's lifetime.
		r.mu.Lock()
		for fp, e := range r.runs {
			if e.group != nil {
				t.Errorf("parallelism %d: finished run %s still holds its warmup group", par, fp[:8])
			}
		}
		r.mu.Unlock()
	}
}

// goldenReportOptions are the flags of the CI golden report (-warmup 4000
// -measure 4000 -cores 1 -benchmarks mcf,canl,sp,dc -parallelism 2
// -capacity).
func goldenReportOptions() Options {
	return Options{Warmup: 4_000, Measure: 4_000, Cores: 1, Seed: 42,
		Benchmarks: []string{"mcf", "canl", "sp", "dc"}, Parallelism: 2, Capacity: true}
}

// TestSingletonWarmupGroupsSkipCapture: every run of the golden report has
// its own warmup fingerprint, so under ShareWarmup every run leads a group
// nobody joins: no run forks, and the results equal a cold runner's.
func TestSingletonWarmupGroupsSkipCapture(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the golden report's 148 runs three times")
	}
	ctx := context.Background()
	o := goldenReportOptions()
	o.ShareWarmup = true
	var cfgs []core.Config
	forked := 0
	o.OnRunDone = func(ri RunInfo) {
		cfgs = append(cfgs, ri.Config)
		if ri.Forked {
			forked++
		}
	}
	if err := Report(ctx, io.Discard, o); err != nil {
		t.Fatal(err)
	}
	if forked != 0 {
		t.Fatalf("golden report forked %d runs, want 0", forked)
	}
	fps := map[string]bool{}
	for _, c := range cfgs {
		fps[c.WarmupFingerprint()] = true
	}
	if len(fps) != len(cfgs) {
		t.Fatalf("%d runs share %d warmup fingerprints; the golden set should have no shared warmup", len(cfgs), len(fps))
	}

	o.OnRunDone = nil
	r := New(o)
	got, err := r.RunAll(ctx, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(goldenReportOptions()).RunAll(ctx, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("singleton shared-warmup results diverged from cold runner")
	}
}

// TestLateFollowerRunsCold: warmup sharing is scoped to one batch. A run
// submitted after another run with its warmup fingerprint, in a separate
// Submit, leads a group of its own: nothing forks, and it returns what a
// cold runner returns.
func TestLateFollowerRunsCold(t *testing.T) {
	ctx := context.Background()
	o := schedOptions(2)
	o.ShareWarmup = true
	var forked *int
	o.OnRunDone, forked = forkCounter()
	r := New(o)
	a := r.config(core.IFAM, "mcf", nil)
	b := r.config(core.IFAM, "mcf", func(c *core.Config) { c.MeasureInstructions = 2_000 })
	if a.WarmupFingerprint() != b.WarmupFingerprint() || a.Fingerprint() == b.Fingerprint() {
		t.Fatal("A and B must share a warmup fingerprint and differ in measured length")
	}
	if _, err := r.Run(ctx, a); err != nil {
		t.Fatal(err)
	}
	got, err := r.Run(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(schedOptions(2)).Run(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("late follower's result diverged from a cold runner's")
	}
	if *forked != 0 {
		t.Fatalf("%d forked runs, want 0", *forked)
	}
}

// TestLeaderFailureFollowersRunCold: a group whose leader fails before the
// warmup boundary captures nothing, and its followers run cold with a cold
// runner's results. The leader is the first run of its group to reach
// coreRun — followers call it only after the leader publishes — so failing
// each warmup fingerprint's first call fails exactly the leaders.
func TestLeaderFailureFollowersRunCold(t *testing.T) {
	ctx := context.Background()
	cold := New(schedOptions(2))
	cfgs := warmShareBatch(cold)
	want := make([]core.Result, len(cfgs))
	for i, cfg := range cfgs {
		res, err := cold.Run(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	errLeader := errors.New("leader failed before the warmup boundary")
	var mu sync.Mutex
	seen := map[string]bool{}
	orig := coreRun
	coreRun = func(ctx context.Context, cfg core.Config, opts ...core.RunOption) (core.Result, error) {
		mu.Lock()
		first := !seen[cfg.WarmupFingerprint()]
		seen[cfg.WarmupFingerprint()] = true
		mu.Unlock()
		if first {
			return core.Result{}, errLeader
		}
		return orig(ctx, cfg, opts...)
	}
	defer func() { coreRun = orig }()

	o := schedOptions(2)
	o.ShareWarmup = true
	var forked *int
	o.OnRunDone, forked = forkCounter()
	r := New(o)
	failed := map[string]int{}
	for i, f := range r.SubmitAll(ctx, cfgs) {
		got, err := f.Wait()
		if errors.Is(err, errLeader) {
			failed[cfgs[i].WarmupFingerprint()]++
			continue
		}
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if !reflect.DeepEqual(want[i], got) {
			t.Fatalf("config %d: follower of a failed leader diverged from a cold run", i)
		}
	}
	// Three groups, one failed leader each; the duplicate of request 0
	// shares its entry, so it fails only if request 0 led.
	if len(failed) != 3 {
		t.Fatalf("failed leaders in %d groups, want 3", len(failed))
	}
	if *forked != 0 {
		t.Fatalf("%d forked runs, want 0", *forked)
	}
}

// TestStoreHitNeverLeads: in a batch whose first group member is a Store
// hit, the hit resolves without leading, and the two members that miss
// share one warmup: one leads and the other forks from its snapshot.
func TestStoreHitNeverLeads(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	seedRunner := New(storeOptions(t, dir))
	measure := func(n uint64) func(*core.Config) {
		return func(c *core.Config) { c.MeasureInstructions = n }
	}
	cfgs := []core.Config{
		seedRunner.config(core.IFAM, "mcf", measure(1_000)),
		seedRunner.config(core.IFAM, "mcf", measure(2_000)),
		seedRunner.config(core.IFAM, "mcf", measure(3_000)),
	}
	if _, err := seedRunner.Run(ctx, cfgs[0]); err != nil {
		t.Fatal(err)
	}
	want, err := New(schedOptions(2)).RunAll(ctx, cfgs)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var simulated []string
	orig := coreRun
	coreRun = func(ctx context.Context, cfg core.Config, opts ...core.RunOption) (core.Result, error) {
		mu.Lock()
		simulated = append(simulated, cfg.Fingerprint())
		mu.Unlock()
		return orig(ctx, cfg, opts...)
	}
	defer func() { coreRun = orig }()

	o := storeOptions(t, dir)
	o.ShareWarmup = true
	forked, cached := 0, 0
	o.OnRunDone = func(ri RunInfo) {
		if ri.Forked {
			forked++
		}
		if ri.Cached {
			cached++
			if ri.Fingerprint != cfgs[0].Fingerprint() {
				t.Errorf("config %s served from the store, want only the first", ri.Fingerprint[:8])
			}
		}
	}
	got, err := New(o).RunAll(ctx, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("mixed hit/miss batch diverged from a cold runner")
	}
	if cached != 1 || forked != 1 {
		t.Fatalf("%d cached / %d forked runs, want 1/1", cached, forked)
	}
	for _, fp := range simulated {
		if fp == cfgs[0].Fingerprint() {
			t.Fatal("the store hit was simulated")
		}
	}
	if len(simulated) != 2 {
		t.Fatalf("%d simulations, want 2", len(simulated))
	}
}
