package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// tinyScale keeps every workload to a round or two of small simulations.
var tinyScale = scale{
	simWarmup: 1000, simMeasure: 1000,
	serveWarmup: 1000, serveMeasure: 1000,
	minRounds: 1, setupReps: 1,
}

// tinyEnv builds deact-serve and a digest file at tiny scale.
func tinyEnv(t *testing.T) *env {
	t.Helper()
	dir := t.TempDir()
	bin := filepath.Join(dir, "deact-serve")
	if out, err := exec.Command("go", "build", "-o", bin, "deact/cmd/deact-serve").CombinedOutput(); err != nil {
		t.Fatalf("build deact-serve: %v\n%s", err, out)
	}
	e := &env{root: "..", work: dir, serveBin: bin, seed: 3, scale: tinyScale,
		golden:  filepath.Join("..", "testdata", "golden-report-short.md"),
		digests: filepath.Join(dir, "digests.json"), out: &bytes.Buffer{}}
	if err := writeDigestFile(context.Background(), e); err != nil {
		t.Fatal(err)
	}
	return e
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

func runOnce(t *testing.T, e *env, workload string, traced bool) (result, string) {
	t.Helper()
	o, err := runWorkload(context.Background(), e, lookup(workload), traced)
	if err != nil {
		t.Fatalf("%s traced=%v: %v", workload, traced, err)
	}
	var out bytes.Buffer
	if err := printOutcome(&out, workload, e, traced, o); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the JSON result: %v", err)
	}
	return r, out.String()
}

// TestEveryMetricIsPrinted runs each workload at tiny scale, untraced and
// traced, and requires every metric BENCHMARK.json names, with its unit,
// in the JSON line and the human output, and every output correct.
func TestEveryMetricIsPrinted(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	e := tinyEnv(t)
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			r, human := runOnce(t, e, w.Name, traced)
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d\n%s", w.Name, traced, r.Correct, r.Failed, r.Attempted, human)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.Name, traced, m.Name, got, m.Unit)
				}
				if !strings.Contains(human, m.Name+" ") {
					t.Errorf("%s traced=%v: human output lacks %s", w.Name, traced, m.Name)
				}
			}
		}
	}
}

// TestCorruptedExpectationsFail shows the correctness checks can fail: a
// wrong golden byte or a wrong expected digest makes failed_frac > 0.
func TestCorruptedExpectationsFail(t *testing.T) {
	e := tinyEnv(t)

	g, err := os.ReadFile(e.golden)
	if err != nil {
		t.Fatal(err)
	}
	g[len(g)/2] ^= 1
	e.golden = filepath.Join(e.work, "golden-corrupt.md")
	if err := os.WriteFile(e.golden, g, 0o644); err != nil {
		t.Fatal(err)
	}
	if r, _ := runOnce(t, e, "report-golden", false); r.Failed == 0 || r.Correct {
		t.Errorf("report-golden against a corrupted golden: failed=%d correct=%v", r.Failed, r.Correct)
	}

	want, err := loadDigests(e.digests)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"xlate-heavy", "stream-mlp"} {
		fp := simMix(w, e.scale, e.seed)[0].Fingerprint()
		saved := want[fp]
		want[fp] = strings.Repeat("0", 64)
		b, _ := json.Marshal(want)
		if err := os.WriteFile(e.digests, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if r, _ := runOnce(t, e, w, false); r.Failed == 0 || r.Correct {
			t.Errorf("%s against a corrupted digest: failed=%d correct=%v", w, r.Failed, r.Correct)
		}
		want[fp] = saved
	}
}

// TestDerivedStreamsAreChecked shows the replay's stream checks can fail:
// with the prefetcher model off, the derived cache stream of a prefetching
// run is shorter than the run's own count, and the replay reports it.
func TestDerivedStreamsAreChecked(t *testing.T) {
	cfg := simShapes("stream-mlp", tinyScale)[0]
	cfg.Seed = 1
	for _, model := range []bool{true, false} {
		modelPrefetcher = model
		la := newLayerAcc()
		err := replayConfig(context.Background(), cfg, la)
		modelPrefetcher = true
		if err != nil {
			t.Fatal(err)
		}
		if failed := la.mismatch > 0; failed == model {
			t.Errorf("prefetcher model %v: %d of %d checks failed; streams %+v", model, la.mismatch, la.checks, la.streams)
		}
	}
}
