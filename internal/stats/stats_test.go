package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Fatalf("geomean(2,8) = %v", g)
	}
	if g := Geomean(nil); g != 0 {
		t.Fatalf("geomean(nil) = %v", g)
	}
	// Non-positive values are skipped, not fatal.
	if g := Geomean([]float64{0, -1, 9}); math.Abs(g-9) > 1e-9 {
		t.Fatalf("geomean with non-positives = %v", g)
	}
}

func TestMeanMinMax(t *testing.T) {
	xs := []float64{3, 1, 2}
	if Mean(xs) != 2 || Min(xs) != 1 || Max(xs) != 3 {
		t.Fatal("mean/min/max wrong")
	}
	if Mean(nil) != 0 || Min(nil) != 0 || Max(nil) != 0 {
		t.Fatal("empty input not zero")
	}
}

func TestGeomeanBetweenMinAndMaxQuick(t *testing.T) {
	f := func(raw []uint16) bool {
		var xs []float64
		for _, r := range raw {
			xs = append(xs, float64(r)+1)
		}
		if len(xs) == 0 {
			return true
		}
		g := Geomean(xs)
		return g >= Min(xs)-1e-9 && g <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableRender(t *testing.T) {
	tb := Table{Title: "Fig X", XLabels: []string{"a", "bb"}}
	if err := tb.AddSeries("one", []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddSeries("twotwo", []float64{3.5, 4.25}); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddSeries("bad", []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	out := tb.Render()
	for _, want := range []string{"Fig X", "one", "twotwo", "3.50", "4.25", "bb"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // title + header + 2 series
		t.Fatalf("render has %d lines:\n%s", len(lines), out)
	}
}

func TestTableCustomFormat(t *testing.T) {
	tb := Table{XLabels: []string{"x"}, Format: "%.0f%%"}
	tb.AddSeries("s", []float64{42})
	if !strings.Contains(tb.Render(), "42%") {
		t.Fatal("custom format ignored")
	}
}
