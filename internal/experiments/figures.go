package experiments

import (
	"context"

	"deact/internal/core"
	"deact/internal/stats"
)

// Figure3 regenerates the motivation slowdown chart: I-FAM slowdown with
// respect to E-FAM per benchmark (paper: up to 20.6× for sssp).
func (r *Runner) Figure3(ctx context.Context) (stats.Table, error) {
	t := stats.Table{
		Title:   "Figure 3: Slowdown of I-FAM wrt E-FAM (×)",
		XLabels: r.opts.benchmarks(),
	}
	pairs, err := r.pairedDefaults(ctx, core.EFAM, core.IFAM, r.opts.benchmarks())
	if err != nil {
		return t, err
	}
	var slow []float64
	for _, p := range pairs {
		slow = append(slow, p[0].Speedup(p[1]))
	}
	err = t.AddSeries("I-FAM slowdown", slow)
	return t, err
}

// Figure4 regenerates the AT vs non-AT request breakdown at FAM for E-FAM
// and I-FAM (paper: canl 44.36% → 84.13%, cactus 1.81% → 53.69%).
func (r *Runner) Figure4(ctx context.Context) (stats.Table, error) {
	t := stats.Table{
		Title:   "Figure 4: Address-translation share of FAM requests (%)",
		XLabels: r.opts.benchmarks(),
		Format:  "%.1f",
	}
	schemes := []core.Scheme{core.EFAM, core.IFAM}
	rows, err := r.perBenchmarkSchemes(ctx, schemes, func(res core.Result) float64 { return res.ATFraction * 100 })
	if err != nil {
		return t, err
	}
	for i, scheme := range schemes {
		if err := t.AddSeries(scheme.String()+" AT", rows[i]); err != nil {
			return t, err
		}
	}
	return t, nil
}

// Figure9 regenerates the access-control-metadata hit-rate comparison
// (paper: DeACT-N lifts canl/sssp/cactus from <60% toward 76–99%).
func (r *Runner) Figure9(ctx context.Context) (stats.Table, error) {
	t := stats.Table{
		Title:   "Figure 9: Access control metadata hit rate (%)",
		XLabels: r.opts.benchmarks(),
		Format:  "%.1f",
	}
	schemes := []core.Scheme{core.IFAM, core.DeACTW, core.DeACTN}
	rows, err := r.perBenchmarkSchemes(ctx, schemes, func(res core.Result) float64 { return res.ACMHitRate * 100 })
	if err != nil {
		return t, err
	}
	for i, scheme := range schemes {
		if err := t.AddSeries(scheme.String(), rows[i]); err != nil {
			return t, err
		}
	}
	return t, nil
}

// Figure10 regenerates the FAM address-translation hit-rate comparison
// (paper: canl 46.44% in I-FAM vs 95.88% in DeACT).
func (r *Runner) Figure10(ctx context.Context) (stats.Table, error) {
	t := stats.Table{
		Title:   "Figure 10: FAM address translation hit rate (%)",
		XLabels: r.opts.benchmarks(),
		Format:  "%.1f",
	}
	schemes := []core.Scheme{core.IFAM, core.DeACTN}
	rows, err := r.perBenchmarkSchemes(ctx, schemes, func(res core.Result) float64 { return res.TranslationHitRate * 100 })
	if err != nil {
		return t, err
	}
	for i, scheme := range schemes {
		name := scheme.String()
		if scheme == core.DeACTN {
			name = "DeACT"
		}
		if err := t.AddSeries(name, rows[i]); err != nil {
			return t, err
		}
	}
	return t, nil
}

// Figure11 regenerates the percentage of AT requests at FAM for I-FAM,
// DeACT-W and DeACT-N (paper: 23.97% → 11.82% → 1.77% on average).
func (r *Runner) Figure11(ctx context.Context) (stats.Table, error) {
	t := stats.Table{
		Title:   "Figure 11: Address-translation share of FAM requests (%)",
		XLabels: r.opts.benchmarks(),
		Format:  "%.1f",
	}
	schemes := []core.Scheme{core.IFAM, core.DeACTW, core.DeACTN}
	rows, err := r.perBenchmarkSchemes(ctx, schemes, func(res core.Result) float64 { return res.ATFraction * 100 })
	if err != nil {
		return t, err
	}
	for i, scheme := range schemes {
		if err := t.AddSeries(scheme.String(), rows[i]); err != nil {
			return t, err
		}
	}
	return t, nil
}

// Figure12 regenerates the headline performance chart: per-benchmark
// performance normalized to E-FAM for all four schemes. The whole
// scheme×benchmark grid is one batch; the E-FAM baseline deduplicates
// against its row in the grid.
func (r *Runner) Figure12(ctx context.Context) (stats.Table, error) {
	t := stats.Table{
		Title:   "Figure 12: Performance normalized to E-FAM",
		XLabels: r.opts.benchmarks(),
	}
	benches := r.opts.benchmarks()
	schemes := core.Schemes()
	cfgs := make([]core.Config, 0, len(benches)*len(schemes))
	baseRow := 0
	for i, scheme := range schemes {
		if scheme == core.EFAM {
			baseRow = i
		}
		for _, b := range benches {
			cfgs = append(cfgs, r.config(scheme, b, nil))
		}
	}
	res, err := r.RunAll(ctx, cfgs)
	if err != nil {
		return t, err
	}
	base := res[baseRow*len(benches) : (baseRow+1)*len(benches)]
	for i, scheme := range schemes {
		var vals []float64
		for j := range benches {
			vals = append(vals, res[i*len(benches)+j].Speedup(base[j]))
		}
		if err := t.AddSeries(scheme.String(), vals); err != nil {
			return t, err
		}
	}
	return t, nil
}
