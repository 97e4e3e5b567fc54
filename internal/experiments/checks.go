package experiments

import (
	"context"
	"fmt"

	"deact/internal/core"
	"deact/internal/stats"
	"deact/internal/workload"
)

// sensitive/insensitive partition per the paper (§V-C).
func partition(benchmarks []string) (sensitive, insensitive []string) {
	cat := workload.Catalog()
	for _, b := range benchmarks {
		if cat[b].ATSensitive {
			sensitive = append(sensitive, b)
		} else {
			insensitive = append(insensitive, b)
		}
	}
	return sensitive, insensitive
}

// meanMetric averages metric over benches under scheme, submitting all
// runs as one batch.
func (r *Runner) meanMetric(ctx context.Context, scheme core.Scheme, benches []string, metric func(core.Result) float64) (float64, error) {
	var cfgs []core.Config
	for _, b := range benches {
		cfgs = append(cfgs, r.config(scheme, b, nil))
	}
	res, err := r.RunAll(ctx, cfgs)
	if err != nil {
		return 0, err
	}
	var xs []float64
	for _, re := range res {
		xs = append(xs, metric(re))
	}
	return stats.Mean(xs), nil
}

// checkFig3Ordering: sensitive benchmarks slow down more than insensitive.
func checkFig3Ordering(ctx context.Context, r *Runner) (bool, string, error) {
	sens, insens := partition(r.opts.benchmarks())
	slowdown := func(benches []string) (float64, error) {
		pairs, err := r.pairedDefaults(ctx, core.EFAM, core.IFAM, benches)
		if err != nil {
			return 0, err
		}
		var xs []float64
		for _, p := range pairs {
			xs = append(xs, p[0].Speedup(p[1]))
		}
		return stats.Geomean(xs), nil
	}
	s, err := slowdown(sens)
	if err != nil {
		return false, "", err
	}
	i, err := slowdown(insens)
	if err != nil {
		return false, "", err
	}
	return s > i, fmt.Sprintf("sensitive geomean %.2f× vs insensitive %.2f×", s, i), nil
}

// checkFig4Blowup: I-FAM AT share > E-FAM AT share everywhere.
func checkFig4Blowup(ctx context.Context, r *Runner) (bool, string, error) {
	worstGap := 1.0
	var worstBench string
	benches := r.opts.benchmarks()
	pairs, err := r.pairedDefaults(ctx, core.EFAM, core.IFAM, benches)
	if err != nil {
		return false, "", err
	}
	for i, b := range benches {
		gap := pairs[i][1].ATFraction - pairs[i][0].ATFraction
		if gap < worstGap {
			worstGap, worstBench = gap, b
		}
	}
	return worstGap > 0, fmt.Sprintf("smallest increase %.3f (%s)", worstGap, worstBench), nil
}

// checkFig9NBeatsW: DeACT-N ACM hit rate > DeACT-W on sensitive set, and
// DeACT-W within a few points of I-FAM on average (the paper's observation
// that W's extra contiguous coverage is wasted under random placement).
func checkFig9NBeatsW(ctx context.Context, r *Runner) (bool, string, error) {
	sens, _ := partition(r.opts.benchmarks())
	acm := func(s core.Scheme) (float64, error) {
		return r.meanMetric(ctx, s, sens, func(res core.Result) float64 { return res.ACMHitRate })
	}
	n, err := acm(core.DeACTN)
	if err != nil {
		return false, "", err
	}
	w, err := acm(core.DeACTW)
	if err != nil {
		return false, "", err
	}
	i, err := acm(core.IFAM)
	if err != nil {
		return false, "", err
	}
	ok := n > w && w < i+0.10
	return ok, fmt.Sprintf("mean ACM hit: I-FAM %.2f, DeACT-W %.2f, DeACT-N %.2f", i, w, n), nil
}

// checkFig10DeACTHigh: DeACT translation hit > I-FAM per benchmark, strictly
// on the sensitive set where the STU cache thrashes.
func checkFig10DeACTHigh(ctx context.Context, r *Runner) (bool, string, error) {
	sens, _ := partition(r.opts.benchmarks())
	worst := 1.0
	var worstBench string
	pairs, err := r.pairedDefaults(ctx, core.IFAM, core.DeACTN, sens)
	if err != nil {
		return false, "", err
	}
	for i, b := range sens {
		gap := pairs[i][1].TranslationHitRate - pairs[i][0].TranslationHitRate
		if gap < worst {
			worst, worstBench = gap, b
		}
	}
	return worst > 0, fmt.Sprintf("smallest sensitive-set gap %.3f (%s)", worst, worstBench), nil
}

// checkFig11Monotone: mean AT share I-FAM > DeACT-W > DeACT-N.
func checkFig11Monotone(ctx context.Context, r *Runner) (bool, string, error) {
	at := func(s core.Scheme) (float64, error) {
		return r.meanMetric(ctx, s, r.opts.benchmarks(), func(res core.Result) float64 { return res.ATFraction })
	}
	i, err := at(core.IFAM)
	if err != nil {
		return false, "", err
	}
	w, err := at(core.DeACTW)
	if err != nil {
		return false, "", err
	}
	n, err := at(core.DeACTN)
	if err != nil {
		return false, "", err
	}
	return i > w && w > n, fmt.Sprintf("mean AT share: %.1f%% → %.1f%% → %.1f%%", i*100, w*100, n*100), nil
}

// checkFig12Ordering: the headline performance ordering.
func checkFig12Ordering(ctx context.Context, r *Runner) (bool, string, error) {
	sens, _ := partition(r.opts.benchmarks())
	ipc := func(s core.Scheme) (float64, error) {
		return r.meanMetric(ctx, s, sens, func(res core.Result) float64 { return res.IPC })
	}
	e, err := ipc(core.EFAM)
	if err != nil {
		return false, "", err
	}
	i, err := ipc(core.IFAM)
	if err != nil {
		return false, "", err
	}
	w, err := ipc(core.DeACTW)
	if err != nil {
		return false, "", err
	}
	n, err := ipc(core.DeACTN)
	if err != nil {
		return false, "", err
	}
	ok := e >= n && n >= w && w > i
	return ok, fmt.Sprintf("sensitive-set mean IPC: E %.4f ≥ N %.4f ≥ W %.4f > I %.4f", e, n, w, i), nil
}
