package experiments

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"testing"

	"deact/internal/core"
)

// tinyOptions keeps test runtime low: a reduced benchmark set spanning both
// sensitivity classes.
func tinyOptions() Options {
	return Options{
		Warmup: 40_000, Measure: 30_000, Cores: 1, Seed: 42,
		Benchmarks: []string{"mcf", "canl", "sp", "pf", "dc"},
	}
}

func TestTableIAndII(t *testing.T) {
	if !strings.Contains(TableI(), "DeACT") || !strings.Contains(TableI(), "E-FAM") {
		t.Fatal("Table I incomplete")
	}
	ii := TableII()
	for _, want := range []string{"STU cache", "Fabric", "FAM (NVM)", "TLB"} {
		if !strings.Contains(ii, want) {
			t.Fatalf("Table II missing %q:\n%s", want, ii)
		}
	}
}

func TestTableIII(t *testing.T) {
	r := New(tinyOptions())
	tbl, err := r.RunSweep(context.Background(), "TableIII")
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Series) != 2 {
		t.Fatalf("series = %d", len(tbl.Series))
	}
	for i, v := range tbl.Series[1].Values {
		if v <= 0 {
			t.Fatalf("measured MPKI %d non-positive", i)
		}
	}
}

func TestFigure3SlowdownAboveOne(t *testing.T) {
	r := New(tinyOptions())
	tbl, err := r.RunSweep(context.Background(), "Figure3")
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range tbl.Series[0].Values {
		if v < 0.95 {
			t.Fatalf("benchmark %s: I-FAM slowdown %.2f < 1", tbl.XLabels[i], v)
		}
	}
}

// requirePass runs the named paper grids on r and fails the test unless
// every check passes.
func requirePass(t *testing.T, r *Runner, names ...string) {
	t.Helper()
	for _, name := range names {
		_, verdicts, err := r.sweepSection(context.Background(), name)
		if err != nil {
			t.Fatal(err)
		}
		if len(verdicts) != 1 || !verdicts[0].ok {
			t.Fatalf("%s: %+v", name, verdicts)
		}
	}
}

func TestFigure12OrderingOnSensitiveSet(t *testing.T) {
	requirePass(t, New(tinyOptions()), "Figure12")
}

func TestFigure4And11Checks(t *testing.T) {
	requirePass(t, New(tinyOptions()), "Figure4", "Figure11")
}

func TestFigure9And10Checks(t *testing.T) {
	requirePass(t, New(tinyOptions()), "Figure9", "Figure10")
}

// TestPaperChecksFailOnEmptyClass: a check comparing a sensitivity class
// the benchmark set lacks fails and names the empty class, instead of
// passing against a mean over nothing.
func TestPaperChecksFailOnEmptyClass(t *testing.T) {
	for _, tc := range []struct {
		bench string
		grids []string
		want  string
	}{
		{"sp", []string{"Figure3", "Figure9", "Figure10", "Figure12"}, noSensitive},
		{"canl", []string{"Figure3"}, noInsensitive},
	} {
		r := New(Options{Warmup: 2_000, Measure: 2_000, Cores: 1, Seed: 42,
			Benchmarks: []string{tc.bench}, Parallelism: 2})
		for _, name := range tc.grids {
			_, verdicts, err := r.sweepSection(context.Background(), name)
			if err != nil {
				t.Fatal(err)
			}
			if len(verdicts) != 1 || verdicts[0].ok || verdicts[0].detail != tc.want {
				t.Errorf("%s on {%s}: %+v, want one FAIL with detail %q", name, tc.bench, verdicts, tc.want)
			}
		}
	}
}

func TestRunnerCachesRuns(t *testing.T) {
	ctx := context.Background()
	r := New(tinyOptions())
	if _, err := r.Run(ctx, r.config(core.EFAM, "mcf", nil)); err != nil {
		t.Fatal(err)
	}
	n := r.CachedRuns()
	if _, err := r.Run(ctx, r.config(core.EFAM, "mcf", nil)); err != nil {
		t.Fatal(err)
	}
	if r.CachedRuns() != n {
		t.Fatal("identical run not cached")
	}
	if r.Options().Seed != 42 {
		t.Fatal("options accessor wrong")
	}
}

func TestFigure16TwoSeries(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node sweep is slow")
	}
	o := tinyOptions()
	o.Warmup, o.Measure = 15_000, 15_000
	r := New(o)
	tbl, err := r.RunSweep(context.Background(), "nodes")
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Series) != 2 {
		t.Fatalf("fig16 series = %d, want pf and dc", len(tbl.Series))
	}
}

func TestReportSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full report is slow")
	}
	o := Options{Warmup: 10_000, Measure: 10_000, Cores: 1, Seed: 42,
		Benchmarks: []string{"canl", "sp", "pf", "dc"}}
	var buf bytes.Buffer
	if err := Report(context.Background(), &buf, o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 12", "Figure 16", "Table III", "PASS", "distinct simulation runs"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

func TestAllListsEveryExperiment(t *testing.T) {
	ids := map[string]bool{}
	for _, nt := range All() {
		ids[nt.id] = true
		if _, err := tinyOptions().sweep(nt.sweep); err != nil {
			t.Errorf("experiment %q: %v", nt.id, err)
		}
	}
	for _, want := range []string{"Table III", "Figure 3", "Figure 4", "Figure 9", "Figure 10",
		"Figure 11", "Figure 12", "Figure 13", "Figure 14", "Figure 15", "Figure 16",
		"§V-D1 associativity", "§V-D2 pairs/way"} {
		if !ids[want] {
			t.Errorf("experiment %q missing from All()", want)
		}
	}
	// The paper grids stay out of deact-sweep's -sweep names.
	for _, s := range paperSweeps() {
		if slices.Contains(SweepNames(), s.name) {
			t.Errorf("paper grid %q listed by SweepNames", s.name)
		}
	}
}

// TestFig16CheckWithoutDC: the node-count check reads the sweep's own
// table, so without dc in the benchmark set the dc row is skipped and the
// check fails on its absence instead of simulating dc on the side.
func TestFig16CheckWithoutDC(t *testing.T) {
	r := New(Options{Warmup: 2_000, Measure: 2_000, Cores: 1, Seed: 42,
		Benchmarks: []string{"canl", "pf"}, Parallelism: 2})
	tbl, verdicts, err := r.sweepSection(context.Background(), "nodes")
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Series) != 1 || tbl.Series[0].Name != "pf" {
		t.Fatalf("series = %+v, want the pf row only", tbl.Series)
	}
	if len(verdicts) != 1 || verdicts[0].ok || !strings.Contains(verdicts[0].detail, "no dc row") {
		t.Fatalf("verdicts = %+v, want one FAIL naming the missing dc row", verdicts)
	}
	// 4 node counts × (DeACT-N, I-FAM) for pf; nothing for dc.
	if n := r.CachedRuns(); n != 8 {
		t.Fatalf("%d runs, want 8", n)
	}
}
