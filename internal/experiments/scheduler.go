package experiments

import (
	"context"

	"deact/internal/core"
)

// RunAll submits every configuration and waits for the results in
// submission order. Duplicate configurations — within the batch or against
// previously executed runs — share one simulation (identity is
// Config.Fingerprint()). The error reported is the first failing request
// in submission order, so error behaviour is deterministic regardless of
// execution interleaving. On cancellation every future is still waited
// (and thereby detached), so the worker pool winds down instead of running
// the rest of the batch in the background.
//
// The whole batch is registered before any of it starts, so under
// ShareWarmup a group leader already counts every batch member sharing its
// warmup when it decides whether to capture a snapshot.
func (r *Runner) RunAll(ctx context.Context, cfgs []core.Config) ([]core.Result, error) {
	futs := make([]*Future, len(cfgs))
	var fresh []*runEntry
	for i, cfg := range cfgs {
		f, isNew := r.register(ctx, cfg)
		futs[i] = f
		if isNew {
			fresh = append(fresh, f.e)
		}
	}
	for _, e := range fresh {
		go r.execute(e)
	}
	results := make([]core.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	for i, f := range futs {
		results[i], errs[i] = f.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// runPaired executes an interleaved (a0, b0, a1, b1, …) batch and returns
// the results as pairs — the shape every "scheme vs its baseline"
// experiment consumes.
func (r *Runner) runPaired(ctx context.Context, cfgs []core.Config) ([][2]core.Result, error) {
	res, err := r.RunAll(ctx, cfgs)
	if err != nil {
		return nil, err
	}
	pairs := make([][2]core.Result, len(res)/2)
	for i := range pairs {
		pairs[i] = [2]core.Result{res[2*i], res[2*i+1]}
	}
	return pairs, nil
}

// pairedDefaults runs (a, b) defaults for every benchmark in one batch and
// returns the result pairs in benchmark order.
func (r *Runner) pairedDefaults(ctx context.Context, a, b core.Scheme, benches []string) ([][2]core.Result, error) {
	var cfgs []core.Config
	for _, bench := range benches {
		cfgs = append(cfgs, r.config(a, bench, nil), r.config(b, bench, nil))
	}
	return r.runPaired(ctx, cfgs)
}

// prefetchDefaults warms the run cache with the full scheme×benchmark grid
// of default-parameter simulations. Report calls it first so Table III and
// Figures 3, 4, 9–12 — which all draw on these runs — assemble from cache
// hits instead of each paying for its own subset serially.
func (r *Runner) prefetchDefaults(ctx context.Context) error {
	var cfgs []core.Config
	for _, s := range core.Schemes() {
		for _, b := range r.opts.benchmarks() {
			cfgs = append(cfgs, r.config(s, b, nil))
		}
	}
	_, err := r.RunAll(ctx, cfgs)
	return err
}
