package experiments

import (
	"context"
	"fmt"
	"io"

	"deact/internal/stats"
)

// expectation records the paper's qualitative claim for one experiment so
// the report can state pass/fail on shape, not absolute numbers.
type expectation struct {
	id    string
	claim string
	check func(ctx context.Context, r *Runner) (bool, string, error)
}

// namedTable pairs an experiment id with its generator: gen and its
// expectations, or a registered sweep, whose table and check come from the
// sweep.
type namedTable struct {
	id       string
	paperRef string
	gen      func(r *Runner, ctx context.Context) (stats.Table, error)
	sweep    string
	expect   []expectation
}

// verdict is one evaluated claim, rendered as a report bullet.
type verdict struct {
	ok                bool
	id, claim, detail string
}

func (v verdict) String() string {
	mark := "PASS"
	if !v.ok {
		mark = "FAIL"
	}
	return fmt.Sprintf("- **%s** — %s: %s (%s)\n", mark, v.id, v.claim, v.detail)
}

// run generates the experiment's table and evaluates its claims.
func (nt namedTable) run(ctx context.Context, r *Runner) (stats.Table, []verdict, error) {
	if nt.sweep != "" {
		return r.sweepSection(ctx, nt.sweep)
	}
	tbl, err := nt.gen(r, ctx)
	if err != nil {
		return tbl, nil, err
	}
	var vs []verdict
	for _, ex := range nt.expect {
		ok, detail, err := ex.check(ctx, r)
		if err != nil {
			return tbl, nil, fmt.Errorf("%s check: %w", ex.id, err)
		}
		vs = append(vs, verdict{ok, ex.id, ex.claim, detail})
	}
	return tbl, vs, nil
}

// sweepSection runs a registered sweep and evaluates its check, if any.
func (r *Runner) sweepSection(ctx context.Context, name string) (stats.Table, []verdict, error) {
	s, err := r.opts.sweep(name)
	if err != nil {
		return stats.Table{}, nil, err
	}
	res, err := r.runSweep(ctx, s)
	if err != nil || s.check == nil {
		return res.table, nil, err
	}
	ok, detail := s.check.verdict(res)
	return res.table, []verdict{{ok, s.check.id, s.check.claim, detail}}, nil
}

// extraSection is one opt-in section beyond the paper: a registered sweep
// with its heading, an introduction and the label of its closing
// additional-simulations line.
type extraSection struct {
	on                          bool
	sweep, heading, intro, runs string
}

// extraSections lists the opt-in sections in print order.
func extraSections(o Options) []extraSection {
	return []extraSection{
		{o.Capacity, "capacity", "Capacity planning — multi-tenant tail latency (beyond the paper)",
			"Tenant 0 on every node runs the noisy workload; the remaining tenants\n" +
				"run the steady one. Columns are nodes/tenants; values are p99 in µs.\n",
			"Capacity-planning"},
		{o.Prefetch, "prefetch", "Prefetch interaction — PC-keyed stream prefetcher (beyond the paper)",
			"Rows are scheme × workload shape (skew benchmarks and the v2 pattern\n" +
				"generators); columns sweep the prefetch degree in 64B blocks; values are\n" +
				"IPC relative to the prefetcher-off baseline of the same row.\n",
			"Prefetch-interaction"},
		{o.MLP, "mlp", "Memory-level parallelism — OoO scheduling window (beyond the paper)",
			"Rows are scheme × workload dependence shape (v2 pattern generators);\n" +
				"columns sweep the OoO scheduling window in ops (with MaxOutstanding\n" +
				"coupled to it); values are IPC relative to the window=1 baseline of the\n" +
				"same row, which is bit-identical to the in-order core.\n",
			"MLP"},
	}
}

// All returns every reproducible experiment in paper order.
func All() []namedTable {
	return []namedTable{
		{id: "Table III", paperRef: "workload calibration",
			gen: (*Runner).TableIII},
		{id: "Figure 3", paperRef: "I-FAM slowdown wrt E-FAM",
			gen: (*Runner).Figure3,
			expect: []expectation{{
				id:    "fig3-sensitive-worst",
				claim: "AT-sensitive benchmarks (canl, sssp, ccsv, cactus) slow down more than the insensitive set (bc, lu, mg, sp)",
				check: checkFig3Ordering,
			}},
		},
		{id: "Figure 4", paperRef: "AT share of FAM requests, E-FAM vs I-FAM",
			gen: (*Runner).Figure4,
			expect: []expectation{{
				id:    "fig4-indirection-blowup",
				claim: "I-FAM's AT share exceeds E-FAM's for every benchmark",
				check: checkFig4Blowup,
			}},
		},
		{id: "Figure 9", paperRef: "ACM hit rate",
			gen: (*Runner).Figure9,
			expect: []expectation{{
				id:    "fig9-n-beats-w",
				claim: "DeACT-N's ACM hit rate beats DeACT-W's on AT-sensitive benchmarks; DeACT-W ≈ I-FAM",
				check: checkFig9NBeatsW,
			}},
		},
		{id: "Figure 10", paperRef: "translation hit rate",
			gen: (*Runner).Figure10,
			expect: []expectation{{
				id:    "fig10-deact-high",
				claim: "DeACT's in-DRAM translation cache hit rate exceeds I-FAM's STU hit rate on every benchmark (paper: >90%)",
				check: checkFig10DeACTHigh,
			}},
		},
		{id: "Figure 11", paperRef: "AT share of FAM requests, three organizations",
			gen: (*Runner).Figure11,
			expect: []expectation{{
				id:    "fig11-monotone",
				claim: "mean AT share decreases I-FAM → DeACT-W → DeACT-N",
				check: checkFig11Monotone,
			}},
		},
		{id: "Figure 12", paperRef: "normalized performance",
			gen: (*Runner).Figure12,
			expect: []expectation{{
				id:    "fig12-ordering",
				claim: "E-FAM ≥ DeACT-N ≥ DeACT-W ≥ I-FAM on AT-sensitive benchmarks; DeACT ≈ I-FAM on the insensitive set",
				check: checkFig12Ordering,
			}},
		},
		{id: "Figure 13", paperRef: "STU size sweep", sweep: "stu"},
		{id: "§V-D1 associativity", paperRef: "STU associativity sweep", sweep: "assoc"},
		{id: "Figure 14", paperRef: "ACM width sweep", sweep: "acm"},
		{id: "§V-D2 pairs/way", paperRef: "DeACT-N packing sweep", sweep: "pairs"},
		{id: "Figure 15", paperRef: "fabric latency sweep", sweep: "fabric"},
		{id: "Figure 16", paperRef: "node count sweep", sweep: "nodes"},
		{id: "§III-A read trust", paperRef: "encrypted-FAM ablation",
			gen: (*Runner).ReadTrustAblation,
			expect: []expectation{{
				id:    "read-trust-never-hurts",
				claim: "skipping read verification never slows a benchmark down",
				check: checkReadTrustNeverHurts,
			}},
		},
	}
}

// Report runs every experiment and writes a markdown report to w. The
// output is deterministic for a given Options scale and seed — independent
// of Parallelism and of when it was generated — so regenerated reports
// diff cleanly. Cancelling ctx aborts the in-flight simulations at the
// next event-loop stride and returns ctx.Err(); Report does not return
// until every worker goroutine has exited.
func Report(ctx context.Context, w io.Writer, opts Options) error {
	r := New(opts)
	defer r.WaitIdle()
	// Warm the cache with the scheme×benchmark default grid through the
	// worker pool: Table III and Figures 3, 4, 9–12 all assemble from it.
	if err := r.prefetchDefaults(ctx); err != nil {
		return err
	}
	fmt.Fprintf(w, "# EXPERIMENTS — DeACT reproduction, paper vs measured\n\n")
	fmt.Fprintf(w, "Generated by `cmd/deact-report` (options: warmup=%d measure=%d cores=%d seed=%d).\n\n",
		opts.Warmup, opts.Measure, opts.Cores, opts.Seed)
	fmt.Fprintf(w, "Absolute numbers are not expected to match the paper (the substrate is a\n")
	fmt.Fprintf(w, "fresh simulator at 1/4 capacity scale, see ARCHITECTURE.md); each experiment\n")
	fmt.Fprintf(w, "instead carries the paper's qualitative claim and a measured PASS/FAIL.\n\n")
	fmt.Fprintf(w, "```\n%s```\n\n```\n%s```\n\n", TableI(), TableII())

	for _, nt := range All() {
		tbl, verdicts, err := nt.run(ctx, r)
		if err != nil {
			return fmt.Errorf("%s: %w", nt.id, err)
		}
		fmt.Fprintf(w, "## %s — %s\n\n```\n%s```\n\n", nt.id, nt.paperRef, tbl.Render())
		for _, v := range verdicts {
			fmt.Fprint(w, v)
		}
		fmt.Fprintf(w, "\n")
	}
	fmt.Fprintf(w, "Total distinct simulation runs: %d.\n", r.CachedRuns())

	// The opt-in sections are strictly additive: they are emitted after the
	// closing runs line (whose count therefore still covers exactly the
	// paper experiments above), so enabling one never changes a byte of the
	// report above it.
	for _, x := range extraSections(opts) {
		if !x.on {
			continue
		}
		before := r.CachedRuns()
		tbl, verdicts, err := r.sweepSection(ctx, x.sweep)
		if err != nil {
			return fmt.Errorf("%s sweep: %w", x.sweep, err)
		}
		fmt.Fprintf(w, "\n## %s\n\n%s\n```\n%s```\n\n", x.heading, x.intro, tbl.Render())
		for _, v := range verdicts {
			fmt.Fprint(w, v)
		}
		fmt.Fprintf(w, "\n%s runs: %d additional simulations.\n", x.runs, r.CachedRuns()-before)
	}
	return nil
}
