// Package stats provides the small numeric helpers the experiment harness
// uses to aggregate results the way the paper does (geometric means per
// suite for the sensitivity studies, §V-D).
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Geomean returns the geometric mean of xs, ignoring non-positive values
// (which would otherwise poison the product). Returns 0 for an empty or
// all-non-positive input.
func Geomean(xs []float64) float64 {
	var logSum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			logSum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Max returns the maximum (0 for empty input).
func Max(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum (0 for empty input).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Series is one labeled line of a figure: a name and a value per x-label.
type Series struct {
	Name   string
	Values []float64
}

// Table renders labeled series against x-labels as a fixed-width text
// table — the harness' stand-in for the paper's bar charts.
type Table struct {
	Title   string
	XLabels []string
	Series  []Series
	// Format prints one value ("%.2f" default).
	Format string
}

// AddSeries appends a series, checking its length.
func (t *Table) AddSeries(name string, values []float64) error {
	if len(values) != len(t.XLabels) {
		return fmt.Errorf("stats: series %q has %d values for %d labels", name, len(values), len(t.XLabels))
	}
	t.Series = append(t.Series, Series{Name: name, Values: values})
	return nil
}

// Render returns the table as aligned text.
func (t *Table) Render() string {
	format := t.Format
	if format == "" {
		format = "%.2f"
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	nameW := 0
	for _, s := range t.Series {
		if len(s.Name) > nameW {
			nameW = len(s.Name)
		}
	}
	colW := make([]int, len(t.XLabels))
	cells := make([][]string, len(t.Series))
	for si, s := range t.Series {
		cells[si] = make([]string, len(s.Values))
		for vi, v := range s.Values {
			cell := fmt.Sprintf(format, v)
			cells[si][vi] = cell
			if len(cell) > colW[vi] {
				colW[vi] = len(cell)
			}
		}
	}
	for i, l := range t.XLabels {
		if len(l) > colW[i] {
			colW[i] = len(l)
		}
	}
	fmt.Fprintf(&b, "%-*s", nameW, "")
	for i, l := range t.XLabels {
		fmt.Fprintf(&b, "  %*s", colW[i], l)
	}
	b.WriteByte('\n')
	for si, s := range t.Series {
		fmt.Fprintf(&b, "%-*s", nameW, s.Name)
		for vi := range s.Values {
			fmt.Fprintf(&b, "  %*s", colW[vi], cells[si][vi])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
