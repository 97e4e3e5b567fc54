package core

import (
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"deact/internal/workload"
)

// oooQuickConfig returns a fast OoO configuration.
func oooQuickConfig(scheme Scheme, bench string, window, schedLat int) Config {
	cfg := quickConfig(scheme, bench)
	cfg.CoreModel = CoreOoO
	cfg.WindowSize = window
	cfg.SchedulerLatency = schedLat
	return cfg
}

// TestOoODegeneratesToInOrder holds core's in-order mapping: CoreInOrder
// builds its cores as a one-entry scheduling window with a zero-latency
// scheduler, so an OoO configuration with WindowSize=1 and
// SchedulerLatency=0 must produce the same Result — across schemes, access
// patterns and random seeds. Both sides run the one cpu step; that the
// one-entry window is the in-order schedule is cpu's
// TestOoOWindowOneMatchesInOrder, against a reference in-order core.
func TestOoODegeneratesToInOrder(t *testing.T) {
	prng := rand.New(rand.NewSource(20260808))
	patterns := []string{"", workload.PatternPointerChase, workload.PatternGraphFrontier, workload.PatternStencil}
	benches := []string{"mcf", "canl", "dc", "sp"}
	for _, scheme := range Schemes() {
		for _, pattern := range patterns {
			cfg := quickConfig(scheme, benches[prng.Intn(len(benches))])
			cfg.Pattern = pattern
			cfg.WarmupInstructions = 4_000 + uint64(prng.Intn(3))*2_000
			cfg.MeasureInstructions = 4_000
			cfg.Seed = prng.Int63n(1 << 30)

			ooo := cfg
			ooo.CoreModel = CoreOoO
			ooo.WindowSize = 1
			ooo.SchedulerLatency = 0

			name := scheme.String() + "/" + pattern
			if pattern == "" {
				name = scheme.String() + "/skew"
			}
			t.Run(name, func(t *testing.T) {
				want, err := Run(context.Background(), cfg)
				if err != nil {
					t.Fatalf("in-order run: %v", err)
				}
				got, err := Run(context.Background(), ooo)
				if err != nil {
					t.Fatalf("OoO run: %v", err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("OoO(W=1, schedLat=0) diverged from in-order:\nin-order: %+v\nOoO:      %+v", want, got)
				}
			})
		}
	}
}

// TestOoODivergesFromInOrder is the counterpart sanity check: with a real
// window the OoO model must NOT reproduce the in-order schedule on a
// dependence-mixed workload — otherwise the degeneracy oracle above proves
// nothing.
func TestOoODivergesFromInOrder(t *testing.T) {
	cfg := quickConfig(DeACTN, "mcf")
	cfg.WarmupInstructions, cfg.MeasureInstructions = 5_000, 5_000
	inorder, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wide := cfg
	wide.CoreModel, wide.WindowSize, wide.SchedulerLatency = CoreOoO, 32, 0
	ooo, err := Run(context.Background(), wide)
	if err != nil {
		t.Fatal(err)
	}
	if inorder.Duration == ooo.Duration {
		t.Fatal("window=32 OoO run matched the in-order schedule exactly; run-ahead is inert")
	}
	if ooo.IPC <= inorder.IPC {
		t.Fatalf("OoO IPC %v not above in-order IPC %v on a mixed workload", ooo.IPC, inorder.IPC)
	}
}

// TestOoOPatternsDiverge pins the mechanism the MLP sweep plots: widening
// the window (with matching miss-window capacity) must speed up a stencil
// stream's core, while a degree-1 pointer chase — a pure dependence chain —
// must not gain from run-ahead at all.
func TestOoOPatternsDiverge(t *testing.T) {
	run := func(pattern string, degree, window int) Result {
		cfg := oooQuickConfig(DeACTN, "mcf", window, 2)
		cfg.CoresPerNode = 1
		cfg.Pattern = pattern
		cfg.PatternDegree = degree
		cfg.MaxOutstanding = window
		cfg.WarmupInstructions, cfg.MeasureInstructions = 4_000, 8_000
		r, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s W=%d: %v", pattern, window, err)
		}
		return r
	}
	stNarrow := run(workload.PatternStencil, 4, 1)
	stWide := run(workload.PatternStencil, 4, 32)
	if stWide.IPC <= stNarrow.IPC {
		t.Fatalf("stencil IPC did not rise with the window: W=1 %v, W=32 %v", stNarrow.IPC, stWide.IPC)
	}
	chNarrow := run(workload.PatternPointerChase, 1, 1)
	chWide := run(workload.PatternPointerChase, 1, 32)
	// The chase is fully serialized: the wide window may not buy a speedup
	// remotely comparable to the stencil's.
	chGain := chWide.IPC / chNarrow.IPC
	stGain := stWide.IPC / stNarrow.IPC
	if chGain > 1.05 {
		t.Fatalf("degree-1 pointer chase sped up %.3fx with the window; the chain should pin it", chGain)
	}
	if stGain < 1.5 {
		t.Fatalf("stencil gained only %.3fx from W=1 to W=32; MLP scaling broken", stGain)
	}
}

// TestOoOConfigJSONRoundTrip: the new core-model fields must survive the
// versioned JSON envelope and preserve run identity through it.
func TestOoOConfigJSONRoundTrip(t *testing.T) {
	cfg := oooQuickConfig(IFAM, "canl", 16, 3)
	b, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var back Config
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.CoreModel != CoreOoO || back.WindowSize != 16 || back.SchedulerLatency != 3 {
		t.Fatalf("core-model fields lost in round trip: %+v", back)
	}
	if back.Fingerprint() != cfg.Fingerprint() {
		t.Fatal("JSON round trip changed the fingerprint")
	}
}

// TestFingerprintCoreModelDefaultMerges pins the normalization: "" and
// CoreInOrder are two spellings of the default timing model and must not
// split run identity, while the OoO knobs must all be part of it.
func TestFingerprintCoreModelDefaultMerges(t *testing.T) {
	blank := DefaultConfig()
	spelled := DefaultConfig()
	spelled.CoreModel = CoreInOrder
	if blank.Fingerprint() != spelled.Fingerprint() {
		t.Fatal(`CoreModel "" and "in-order" split run identity; they simulate identically`)
	}
	mk := func(window, schedLat int) string {
		c := DefaultConfig()
		c.CoreModel, c.WindowSize, c.SchedulerLatency = CoreOoO, window, schedLat
		return c.Fingerprint()
	}
	variants := []string{blank.Fingerprint(), mk(1, 0), mk(8, 0), mk(8, 2)}
	fps := map[string]int{}
	for i, fp := range variants {
		if j, dup := fps[fp]; dup {
			t.Errorf("core-model variants %d and %d alias", i, j)
		}
		fps[fp] = i
	}
}
