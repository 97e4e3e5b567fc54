package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
)

// coldAndSnapshot runs cfg cold, capturing a warmup snapshot at the
// boundary on the way through, and returns both.
func coldAndSnapshot(t *testing.T, cfg Config) (Result, *Snapshot) {
	t.Helper()
	var snap *Snapshot
	cold, err := Run(context.Background(), cfg,
		WithWarmupHook(func(s *System) { snap = s.Snapshot() }))
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	if snap == nil {
		t.Fatal("warmup hook never fired")
	}
	return cold, snap
}

// TestForkedRunMatchesCold is the snapshot oracle: a run forked from a
// warmup snapshot must produce a bit-identical Result to the cold run that
// simulated the same warmup itself — across schemes, seeds, benchmarks and
// geometry variations drawn from a fixed-seed generator.
func TestForkedRunMatchesCold(t *testing.T) {
	prng := rand.New(rand.NewSource(20260807))
	benches := []string{"mcf", "canl", "dc", "sp"}
	for i, scheme := range Schemes() {
		for trial := 0; trial < 2; trial++ {
			cfg := DefaultConfig()
			cfg.Scheme = scheme
			cfg.Benchmark = benches[prng.Intn(len(benches))]
			cfg.Nodes = 1 + prng.Intn(2)
			cfg.CoresPerNode = 1 + prng.Intn(2)
			cfg.WarmupInstructions = 4_000 + uint64(prng.Intn(3))*2_000
			cfg.MeasureInstructions = 4_000
			cfg.Seed = prng.Int63n(1 << 30)
			cfg.STUWays = []int{4, 8, 16}[prng.Intn(3)]
			// Alternate timing models so snapshot forking is exercised under
			// the OoO scheduler too (its chain state must drain at the
			// warmup boundary for the fork to match the cold run).
			name := cfg.Benchmark
			if trial == 1 {
				cfg.CoreModel = CoreOoO
				cfg.WindowSize = []int{1, 8, 32}[prng.Intn(3)]
				cfg.SchedulerLatency = prng.Intn(3)
				name += "/ooo"
			}
			t.Run(scheme.String()+"/"+name, func(t *testing.T) {
				cold, snap := coldAndSnapshot(t, cfg)
				forked, err := Run(context.Background(), cfg, WithSnapshot(snap))
				if err != nil {
					t.Fatalf("forked run (trial %d): %v", i*2+trial, err)
				}
				if !reflect.DeepEqual(cold, forked) {
					t.Fatalf("forked run diverged from cold:\ncold:   %+v\nforked: %+v", cold, forked)
				}
			})
		}
	}
}

// TestSnapshotForksDoNotAlias: one snapshot must support any number of
// forks — a fork that runs (mutating every restored structure) and recycles
// its memory into a shared pool must not perturb the snapshot or a later
// fork from it.
func TestSnapshotForksDoNotAlias(t *testing.T) {
	cfg := quickConfig(DeACTN, "canl")
	cfg.WarmupInstructions = 6_000
	cfg.MeasureInstructions = 6_000
	cold, snap := coldAndSnapshot(t, cfg)

	pool := NewSystemPool()
	first, err := Run(context.Background(), cfg, WithSnapshot(snap), WithPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	// The second fork reuses the pool the first fork recycled into; if the
	// first fork's run mutated state aliased by the snapshot, this diverges.
	second, err := Run(context.Background(), cfg, WithSnapshot(snap), WithPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, first) {
		t.Fatalf("first fork diverged from cold:\n%+v\n%+v", cold, first)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("second fork diverged from first (snapshot aliased by a fork):\n%+v\n%+v", first, second)
	}
}

// TestRestoreRejectsMismatchedConfig: a snapshot must only restore into a
// system whose warmup-relevant fields match; a differing MeasureInstructions
// must be accepted (that is the point of warmup sharing).
func TestRestoreRejectsMismatchedConfig(t *testing.T) {
	cfg := quickConfig(IFAM, "mcf")
	cfg.WarmupInstructions, cfg.MeasureInstructions = 4_000, 4_000
	_, snap := coldAndSnapshot(t, cfg)

	bad := cfg
	bad.Seed++
	if _, err := Run(context.Background(), bad, WithSnapshot(snap)); err == nil {
		t.Fatal("restore into a different-seed config succeeded")
	}

	longer := cfg
	longer.MeasureInstructions = 8_000
	if _, err := Run(context.Background(), longer, WithSnapshot(snap)); err != nil {
		t.Fatalf("restore with a different measure length rejected: %v", err)
	}
}

// TestWarmupFingerprint: MeasureInstructions is the only field allowed to
// differ between configs with equal warmup fingerprints.
func TestWarmupFingerprint(t *testing.T) {
	a := DefaultConfig()
	b := a
	b.MeasureInstructions *= 2
	if a.WarmupFingerprint() != b.WarmupFingerprint() {
		t.Fatal("MeasureInstructions changed the warmup fingerprint")
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("MeasureInstructions did not change the full fingerprint")
	}
	c := a
	c.WarmupInstructions++
	if a.WarmupFingerprint() == c.WarmupFingerprint() {
		t.Fatal("WarmupInstructions did not change the warmup fingerprint")
	}
	d := a
	d.Scheme = EFAM
	if a.WarmupFingerprint() == d.WarmupFingerprint() {
		t.Fatal("Scheme did not change the warmup fingerprint")
	}
}
