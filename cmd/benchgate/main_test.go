package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const baseBench = `
BenchmarkEngine/handler-8   1000000   10.0 ns/op   0 B/op   0 allocs/op
BenchmarkCoreRun/I-FAM-8        100   10000000 ns/op   5000000 B/op   700 allocs/op
BenchmarkCoreRun/I-FAM-8        100   10200000 ns/op   5000000 B/op   700 allocs/op
BenchmarkOther-8                100   50 ns/op
`

func gateOut(t *testing.T, args []string) (int, string) {
	t.Helper()
	var sb strings.Builder
	code := run(args, &sb)
	return code, sb.String()
}

func TestGatePassesWithinBudget(t *testing.T) {
	dir := t.TempDir()
	base := write(t, dir, "base.txt", baseBench)
	head := write(t, dir, "head.txt", `
BenchmarkEngine/handler-8   1000000   11.0 ns/op   0 B/op   0 allocs/op
BenchmarkCoreRun/I-FAM-8        100   9000000 ns/op   4000000 B/op   400 allocs/op
`)
	code, out := gateOut(t, []string{base, head})
	if code != 0 {
		t.Fatalf("gate failed unexpectedly:\n%s", out)
	}
	if !strings.Contains(out, "PASS") {
		t.Fatalf("missing PASS:\n%s", out)
	}
}

func TestGateFailsOnTimeRegression(t *testing.T) {
	dir := t.TempDir()
	base := write(t, dir, "base.txt", baseBench)
	head := write(t, dir, "head.txt", `
BenchmarkEngine/handler-8   1000000   10.0 ns/op   0 B/op   0 allocs/op
BenchmarkCoreRun/I-FAM-8        100   13000000 ns/op   5000000 B/op   700 allocs/op
`)
	code, out := gateOut(t, []string{base, head})
	if code != 1 {
		t.Fatalf("time regression not caught (code %d):\n%s", code, out)
	}
}

func TestGateFailsOnAnyAllocsRegression(t *testing.T) {
	dir := t.TempDir()
	base := write(t, dir, "base.txt", baseBench)
	head := write(t, dir, "head.txt", `
BenchmarkEngine/handler-8   1000000   10.0 ns/op   0 B/op   1 allocs/op
BenchmarkCoreRun/I-FAM-8        100   10000000 ns/op   5000000 B/op   700 allocs/op
`)
	code, out := gateOut(t, []string{base, head})
	if code != 1 {
		t.Fatalf("allocs regression not caught (code %d):\n%s", code, out)
	}
}

func TestGateIgnoresUngatedAndNewBenchmarks(t *testing.T) {
	dir := t.TempDir()
	base := write(t, dir, "base.txt", baseBench)
	// BenchmarkOther regresses wildly and BenchmarkMemdevAccess is new —
	// neither may fail the gate.
	head := write(t, dir, "head.txt", `
BenchmarkEngine/handler-8   1000000   10.0 ns/op   0 B/op   0 allocs/op
BenchmarkCoreRun/I-FAM-8        100   10000000 ns/op   5000000 B/op   700 allocs/op
BenchmarkCoreRun/DeACT-N-8      100   10000000 ns/op   5000000 B/op   700 allocs/op
BenchmarkOther-8                100   5000 ns/op
BenchmarkMemdevAccess/inorder-8 100   18 ns/op 0 B/op 0 allocs/op
`)
	code, out := gateOut(t, []string{base, head})
	if code != 0 {
		t.Fatalf("gate failed on ungated/new benchmarks:\n%s", out)
	}
	if !strings.Contains(out, "SKIP BenchmarkCoreRun/DeACT-N") {
		t.Fatalf("new gated benchmark should be reported as skipped:\n%s", out)
	}
}

func TestGateReportsRemovedGatedBenchmarks(t *testing.T) {
	dir := t.TempDir()
	base := write(t, dir, "base.txt", baseBench)
	// BenchmarkCoreRun disappears in head: still a PASS (Engine is intact),
	// but the removal must be visible in the output.
	head := write(t, dir, "head.txt", `
BenchmarkEngine/handler-8   1000000   10.0 ns/op   0 B/op   0 allocs/op
`)
	code, out := gateOut(t, []string{base, head})
	if code != 0 {
		t.Fatalf("removal alone must not fail the gate (code %d):\n%s", code, out)
	}
	if !strings.Contains(out, "SKIP BenchmarkCoreRun/I-FAM") || !strings.Contains(out, "removed") {
		t.Fatalf("removed gated benchmark not reported:\n%s", out)
	}
}

func TestGateErrorsWhenNothingToEnforce(t *testing.T) {
	dir := t.TempDir()
	base := write(t, dir, "base.txt", "BenchmarkOther-8 100 50 ns/op\n")
	head := write(t, dir, "head.txt", "BenchmarkOther-8 100 50 ns/op\n")
	code, out := gateOut(t, []string{base, head})
	if code != 2 {
		t.Fatalf("empty enforcement set must be an error (code %d):\n%s", code, out)
	}
}

func TestGateCustomThreshold(t *testing.T) {
	dir := t.TempDir()
	base := write(t, dir, "base.txt", baseBench)
	head := write(t, dir, "head.txt", `
BenchmarkEngine/handler-8   1000000   11.5 ns/op   0 B/op   0 allocs/op
BenchmarkCoreRun/I-FAM-8        100   10100000 ns/op   5000000 B/op   700 allocs/op
`)
	// 15% regression fails a 10% budget.
	code, _ := gateOut(t, []string{"-budget", "10", base, head})
	if code != 1 {
		t.Fatalf("custom threshold not applied (code %d)", code)
	}
}

func TestGateBudgetFlag(t *testing.T) {
	dir := t.TempDir()
	base := write(t, dir, "base.txt", baseBench)
	// ~15% time regression on the gated CoreRun benchmark.
	head := write(t, dir, "head.txt", `
BenchmarkEngine/handler-8   1000000   10.0 ns/op   0 B/op   0 allocs/op
BenchmarkCoreRun/I-FAM-8        100   11600000 ns/op   5000000 B/op   700 allocs/op
`)
	if code, out := gateOut(t, []string{"-budget", "10", base, head}); code != 1 {
		t.Fatalf("-budget 10 did not fail a 15%% regression (code %d):\n%s", code, out)
	}
	if code, out := gateOut(t, []string{"-budget", "30", base, head}); code != 0 {
		t.Fatalf("-budget 30 failed a 15%% regression (code %d):\n%s", code, out)
	}
}
