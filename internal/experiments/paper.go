package experiments

import (
	"fmt"

	"deact/internal/core"
	"deact/internal/stats"
	"deact/internal/workload"
)

// metric makes a benchmark-column cell: f of the column's one run.
func metric(f func(core.Result) float64) cellFunc {
	return func(runs [][]sweepRun, p int) float64 { return f(runs[p][0].res) }
}

// percent makes a benchmark-column cell showing a [0,1] rate f as a
// percentage.
func percent(f func(core.Result) float64) cellFunc {
	return metric(func(res core.Result) float64 { return f(res) * 100 })
}

func atShare(res core.Result) float64  { return res.ATFraction }
func acmHit(res core.Result) float64   { return res.ACMHitRate }
func xlateHit(res core.Result) float64 { return res.TranslationHitRate }
func ipc(res core.Result) float64      { return res.IPC }

// schemeRows makes one benchmark-column row per scheme, named by it.
func schemeRows(cell cellFunc, schemes ...core.Scheme) []row {
	rows := make([]row, len(schemes))
	for i, s := range schemes {
		rows[i] = row{name: s.String(), scheme: s, cell: cell}
	}
	return rows
}

// values returns f of row i's runs, one per benchmark column.
func (s sweepResult) values(i int, f func(core.Result) float64) []float64 {
	xs := make([]float64, len(s.runs[i]))
	for p, runs := range s.runs[i] {
		xs[p] = f(runs[0].res)
	}
	return xs
}

// classes splits a benchmark-column grid's columns into the AT-sensitive
// and insensitive benchmarks per the paper (§V-C), in column order.
func (s sweepResult) classes() (sensitive, insensitive []int) {
	cat := workload.Catalog()
	for p, b := range s.table.XLabels {
		if cat[b].ATSensitive {
			sensitive = append(sensitive, p)
		} else {
			insensitive = append(insensitive, p)
		}
	}
	return sensitive, insensitive
}

// pick returns xs at the given columns, in order.
func pick(xs []float64, cols []int) []float64 {
	out := make([]float64, len(cols))
	for i, p := range cols {
		out[i] = xs[p]
	}
	return out
}

// A check comparing a class the benchmark set lacks fails on that absence:
// a mean over nothing is not evidence.
const (
	noSensitive   = "no AT-sensitive benchmark in the set"
	noInsensitive = "no AT-insensitive benchmark in the set"
)

// smallestGap returns the smallest hi−lo over cols (at most 1, the
// starting bound) and the benchmark it occurs on.
func (s sweepResult) smallestGap(lo, hi []float64, cols []int) (float64, string) {
	worst, bench := 1.0, ""
	for _, p := range cols {
		if gap := hi[p] - lo[p]; gap < worst {
			worst, bench = gap, s.table.XLabels[p]
		}
	}
	return worst, bench
}

// paperSweeps is the registry of the paper's per-benchmark grids — Table
// III, Figures 3–12 and the §III-A ablation — one benchmark column each.
// They are reached through All() and RunSweep, never through SweepNames().
func paperSweeps() []sweep {
	return []sweep{
		{
			// The workload-calibration check. Measured MPKI comes from an
			// E-FAM run, the configuration closest to the paper's
			// selection environment.
			name:         "TableIII",
			title:        "Table III: Applications — paper MPKI vs measured (E-FAM, scaled system)",
			format:       "%.0f",
			benchColumns: true,
			rows: []row{
				{name: "paper", scheme: core.EFAM, cell: func(runs [][]sweepRun, p int) float64 {
					// The run has validated the benchmark name already.
					prof, _ := workload.Get(runs[p][0].cfg.Benchmark)
					return prof.PaperMPKI
				}},
				{name: "measured", scheme: core.EFAM, cell: metric(func(res core.Result) float64 { return res.MPKI })},
			},
		},
		{
			// The motivation slowdown chart (paper: up to 20.6× for sssp).
			name:         "Figure3",
			title:        "Figure 3: Slowdown of I-FAM wrt E-FAM (×)",
			benchColumns: true,
			rows:         []row{{name: "I-FAM slowdown", scheme: core.EFAM, cell: speedup}},
			base:         withScheme(core.IFAM),
			check: &sweepCheck{id: "fig3-sensitive-worst",
				claim: "AT-sensitive benchmarks (canl, sssp, ccsv, cactus) slow down more than the insensitive set (bc, lu, mg, sp)",
				verdict: func(res sweepResult) (bool, string) {
					sens, insens := res.classes()
					switch {
					case len(sens) == 0:
						return false, noSensitive
					case len(insens) == 0:
						return false, noInsensitive
					}
					slow := res.table.Series[0].Values
					s, i := stats.Geomean(pick(slow, sens)), stats.Geomean(pick(slow, insens))
					return s > i, fmt.Sprintf("sensitive geomean %.2f× vs insensitive %.2f×", s, i)
				}},
		},
		{
			// Paper: canl 44.36% → 84.13%, cactus 1.81% → 53.69%.
			name:         "Figure4",
			title:        "Figure 4: Address-translation share of FAM requests (%)",
			format:       "%.1f",
			benchColumns: true,
			rows: []row{
				{name: "E-FAM AT", scheme: core.EFAM, cell: percent(atShare)},
				{name: "I-FAM AT", scheme: core.IFAM, cell: percent(atShare)},
			},
			check: &sweepCheck{id: "fig4-indirection-blowup",
				claim: "I-FAM's AT share exceeds E-FAM's for every benchmark",
				verdict: func(res sweepResult) (bool, string) {
					every := make([]int, len(res.table.XLabels))
					for p := range every {
						every[p] = p
					}
					gap, b := res.smallestGap(res.values(0, atShare), res.values(1, atShare), every)
					return gap > 0, fmt.Sprintf("smallest increase %.3f (%s)", gap, b)
				}},
		},
		{
			// Paper: DeACT-N lifts canl/sssp/cactus from <60% toward 76–99%.
			name:         "Figure9",
			title:        "Figure 9: Access control metadata hit rate (%)",
			format:       "%.1f",
			benchColumns: true,
			rows:         schemeRows(percent(acmHit), core.IFAM, core.DeACTW, core.DeACTN),
			// DeACT-W's extra contiguous coverage is wasted under random
			// placement, so it stays within a few points of I-FAM.
			check: &sweepCheck{id: "fig9-n-beats-w",
				claim: "DeACT-N's ACM hit rate beats DeACT-W's on AT-sensitive benchmarks; DeACT-W ≈ I-FAM",
				verdict: func(res sweepResult) (bool, string) {
					sens, _ := res.classes()
					if len(sens) == 0 {
						return false, noSensitive
					}
					mean := func(i int) float64 { return stats.Mean(pick(res.values(i, acmHit), sens)) }
					i, w, n := mean(0), mean(1), mean(2)
					return n > w && w < i+0.10, fmt.Sprintf("mean ACM hit: I-FAM %.2f, DeACT-W %.2f, DeACT-N %.2f", i, w, n)
				}},
		},
		{
			// Paper: canl 46.44% in I-FAM vs 95.88% in DeACT.
			name:         "Figure10",
			title:        "Figure 10: FAM address translation hit rate (%)",
			format:       "%.1f",
			benchColumns: true,
			rows: []row{
				{name: core.IFAM.String(), scheme: core.IFAM, cell: percent(xlateHit)},
				{name: "DeACT", scheme: core.DeACTN, cell: percent(xlateHit)},
			},
			// Strictly on the sensitive set, where the STU cache thrashes.
			check: &sweepCheck{id: "fig10-deact-high",
				claim: "DeACT's in-DRAM translation cache hit rate exceeds I-FAM's STU hit rate on every benchmark (paper: >90%)",
				verdict: func(res sweepResult) (bool, string) {
					sens, _ := res.classes()
					if len(sens) == 0 {
						return false, noSensitive
					}
					gap, b := res.smallestGap(res.values(0, xlateHit), res.values(1, xlateHit), sens)
					return gap > 0, fmt.Sprintf("smallest sensitive-set gap %.3f (%s)", gap, b)
				}},
		},
		{
			// Paper: 23.97% → 11.82% → 1.77% on average.
			name:         "Figure11",
			title:        "Figure 11: Address-translation share of FAM requests (%)",
			format:       "%.1f",
			benchColumns: true,
			rows:         schemeRows(percent(atShare), core.IFAM, core.DeACTW, core.DeACTN),
			check: &sweepCheck{id: "fig11-monotone",
				claim: "mean AT share decreases I-FAM → DeACT-W → DeACT-N",
				verdict: func(res sweepResult) (bool, string) {
					mean := func(i int) float64 { return stats.Mean(res.values(i, atShare)) }
					i, w, n := mean(0), mean(1), mean(2)
					return i > w && w > n, fmt.Sprintf("mean AT share: %.1f%% → %.1f%% → %.1f%%", i*100, w*100, n*100)
				}},
		},
		{
			// The headline performance chart; the E-FAM row is its own
			// baseline, so every baseline run deduplicates against it.
			name:         "Figure12",
			title:        "Figure 12: Performance normalized to E-FAM",
			benchColumns: true,
			rows:         schemeRows(speedup, core.Schemes()...),
			base:         withScheme(core.EFAM),
			check: &sweepCheck{id: "fig12-ordering",
				claim: "E-FAM ≥ DeACT-N ≥ DeACT-W ≥ I-FAM on AT-sensitive benchmarks; DeACT ≈ I-FAM on the insensitive set",
				verdict: func(res sweepResult) (bool, string) {
					sens, _ := res.classes()
					if len(sens) == 0 {
						return false, noSensitive
					}
					mean := func(i int) float64 { return stats.Mean(pick(res.values(i, ipc), sens)) }
					e, i, w, n := mean(0), mean(1), mean(2), mean(3)
					return e >= n && n >= w && w > i,
						fmt.Sprintf("sensitive-set mean IPC: E %.4f ≥ N %.4f ≥ W %.4f > I %.4f", e, n, w, i)
				}},
		},
		{
			// §III-A's optional optimization for encrypted FAM: with
			// per-node keys, reads can skip access control (a foreign
			// reader only obtains ciphertext). The speedup it buys is an
			// upper bound on what ACM caching is worth for read traffic.
			name:         "ReadTrust",
			title:        "§III-A ablation: DeACT-N with trusted reads (encrypted FAM) vs baseline",
			benchColumns: true,
			rows: []row{{name: "trusted-read speedup", scheme: core.DeACTN, cell: speedup,
				set: func(c *core.Config) { c.TrustReads = true }}},
			base: func(c *core.Config) { c.TrustReads = false },
			// Skipping read verification can only remove work.
			check: &sweepCheck{id: "read-trust-never-hurts",
				claim: "skipping read verification never slows a benchmark down",
				verdict: func(res sweepResult) (bool, string) {
					v := res.table.Series[0].Values
					min := stats.Min(v)
					return min > 0.97, fmt.Sprintf("min speedup %.3f, geomean %.3f", min, stats.Geomean(v))
				}},
		},
	}
}
