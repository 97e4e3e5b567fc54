package experiments

import (
	"context"
	"fmt"
	"io"

	"deact/internal/stats"
)

// namedTable is one report section: an experiment id, what it
// reproduces, and the registered sweep or paper grid that makes its table
// and checks its claim.
type namedTable struct {
	id, paperRef, sweep string
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

// sweepSection runs a registered sweep or paper grid and evaluates its
// check, if any.
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
		{"Table III", "workload calibration", "TableIII"},
		{"Figure 3", "I-FAM slowdown wrt E-FAM", "Figure3"},
		{"Figure 4", "AT share of FAM requests, E-FAM vs I-FAM", "Figure4"},
		{"Figure 9", "ACM hit rate", "Figure9"},
		{"Figure 10", "translation hit rate", "Figure10"},
		{"Figure 11", "AT share of FAM requests, three organizations", "Figure11"},
		{"Figure 12", "normalized performance", "Figure12"},
		{"Figure 13", "STU size sweep", "stu"},
		{"§V-D1 associativity", "STU associativity sweep", "assoc"},
		{"Figure 14", "ACM width sweep", "acm"},
		{"§V-D2 pairs/way", "DeACT-N packing sweep", "pairs"},
		{"Figure 15", "fabric latency sweep", "fabric"},
		{"Figure 16", "node count sweep", "nodes"},
		{"§III-A read trust", "encrypted-FAM ablation", "ReadTrust"},
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
		tbl, verdicts, err := r.sweepSection(ctx, nt.sweep)
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
