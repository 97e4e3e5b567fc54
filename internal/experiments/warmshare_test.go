package experiments

import (
	"context"
	"io"
	"reflect"
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
		// it, so every leader sees its followers pending at its warmup
		// boundary: each group must have published a snapshot, and every
		// non-leader must have forked from it.
		if groups, published, _ := warmState(r); groups != 3 || published != 3 {
			t.Fatalf("parallelism %d: %d groups / %d snapshots, want 3/3", par, groups, published)
		}
		if *forked != 4 {
			t.Fatalf("parallelism %d: %d forked runs, want 4", par, *forked)
		}
	}
}

// TestSharedWarmupEvictionBounded: more distinct warmup groups than
// maxWarmSnapshots must evict down to the bound once runs detach, releasing
// snapshot storage back to the pool rather than accumulating it. Each seed
// runs two measure lengths, so every group has a follower and captures.
func TestSharedWarmupEvictionBounded(t *testing.T) {
	o := schedOptions(2)
	o.ShareWarmup = true
	r := New(o)
	var cfgs []core.Config
	for seed := int64(0); seed < int64(maxWarmSnapshots)+3; seed++ {
		for _, n := range []uint64{1_000, 2_000} {
			s, n := seed, n
			cfgs = append(cfgs, r.config(core.IFAM, "mcf", func(c *core.Config) {
				c.Seed = s
				c.MeasureInstructions = n
			}))
		}
	}
	if _, err := r.RunAll(context.Background(), cfgs); err != nil {
		t.Fatal(err)
	}
	_, live, freed := warmState(r)
	if live > maxWarmSnapshots {
		t.Fatalf("%d live snapshots, bound is %d", live, maxWarmSnapshots)
	}
	if freed == 0 {
		t.Fatal("eviction released no snapshot storage to the pool")
	}
}

// goldenReportOptions are the flags of the CI golden report (-warmup 4000
// -measure 4000 -cores 1 -benchmarks mcf,canl,sp,dc -parallelism 2
// -capacity).
func goldenReportOptions() Options {
	return Options{Warmup: 4_000, Measure: 4_000, Cores: 1, Seed: 42,
		Benchmarks: []string{"mcf", "canl", "sp", "dc"}, Parallelism: 2, Capacity: true}
}

// warmState reports how many warmup groups are tracked, how many of them
// hold a published snapshot, and how many snapshots eviction returned to
// the pool.
func warmState(r *Runner) (groups, published, freed int) {
	r.warmMu.Lock()
	defer r.warmMu.Unlock()
	for _, g := range r.warm {
		if g.snap != nil {
			published++
		}
	}
	return len(r.warm), published, len(r.freeSnaps)
}

// TestSingletonWarmupGroupsSkipCapture: every run of the golden report has
// its own warmup fingerprint, so under ShareWarmup every run leads a group
// nobody joins. No leader may capture a snapshot (a capture would leave its
// group tracked, or its storage in freeSnaps after eviction), no run forks,
// and the results equal a cold runner's.
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
	if groups, published, freed := warmState(r); groups != 0 || published != 0 || freed != 0 {
		t.Fatalf("%d groups / %d snapshots / %d freed after %d singleton runs, want 0/0/0",
			groups, published, freed, len(cfgs))
	}
	want, err := New(goldenReportOptions()).RunAll(ctx, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("singleton shared-warmup results diverged from cold runner")
	}
}

// TestLateFollowerRunsCold: a run submitted after its warmup group's leader
// passed the boundary alone finds no snapshot (none was captured) and no
// group (the leader retired it). It founds a fresh group, runs cold, and
// returns what a cold runner returns.
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
	if groups, published, freed := warmState(r); groups != 0 || published != 0 || freed != 0 {
		t.Fatalf("%d groups / %d snapshots / %d freed, want 0/0/0", groups, published, freed)
	}
}
