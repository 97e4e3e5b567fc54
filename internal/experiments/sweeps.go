package experiments

import (
	"context"
	"fmt"
	"strings"

	"deact/internal/core"
	"deact/internal/node"
	"deact/internal/sim"
	"deact/internal/stats"
	"deact/internal/workload"
)

// sweep is one grid described as data: a table with one series per row and
// one column per point. Every cell is reduced by its row's cell function
// from the simulations of that (row, point) — one run per member
// benchmark, each paired with a baseline run when base is set. The whole
// grid is submitted as one batch, so all of it overlaps on the worker pool.
type sweep struct {
	name   string // the deact-sweep -sweep value, or a paper grid's name
	title  string
	format string // stats.Table.Format ("" = "%.2f")
	points []point
	// benchColumns replaces points with one column per benchmark of the
	// set, labelled by name: each cell is that benchmark's one run, and
	// rows name no members.
	benchColumns bool
	rows         []row
	// base, if set, derives each run's baseline: the same config mutated
	// by base (withScheme(core.IFAM) for the §V-D sweeps).
	base  func(*core.Config)
	check *sweepCheck // nil: the sweep states no claim
}

// point is one column: its label and the setting it sweeps (nil: none).
type point struct {
	label string
	set   func(*core.Config)
}

// row is one series: the scheme it runs, the benchmarks whose runs make
// each cell, the non-swept settings it fixes (nil: none) and how a cell
// reduces those runs. Outside benchmark columns, rows without members are
// skipped: they have no runs and no series.
type row struct {
	name    string
	scheme  core.Scheme
	members []string
	set     func(*core.Config)
	cell    cellFunc
}

// sweepRun is one member simulation of a cell: its config, its result and,
// for sweeps with a baseline, the baseline run's result.
type sweepRun struct {
	cfg       core.Config
	res, base core.Result
}

// cellFunc reduces one row's runs (runs[point][member]) at point p.
type cellFunc func(runs [][]sweepRun, p int) float64

// withScheme is a baseline that runs the same config under scheme s.
func withScheme(s core.Scheme) func(*core.Config) {
	return func(c *core.Config) { c.Scheme = s }
}

// sweepCheck is a sweep's qualitative claim. verdict reads the finished
// sweep — it never submits a run of its own.
type sweepCheck struct {
	id, claim string
	verdict   func(sweepResult) (ok bool, detail string)
}

// sweepResult is a finished sweep: its table and, indexed like the table's
// series, runs[row][point][member].
type sweepResult struct {
	table stats.Table
	runs  [][][]sweepRun
}

// series returns the index of the named series (-1 if absent).
func (s sweepResult) series(name string) int {
	for i, sr := range s.table.Series {
		if sr.Name == name {
			return i
		}
	}
	return -1
}

// column returns the index of the point labelled label (-1 if absent).
func (s sweepResult) column(label string) int {
	for i, l := range s.table.XLabels {
		if l == label {
			return i
		}
	}
	return -1
}

// columnGeomean summarizes point p over every series: the all-groups
// figure the §V-D checks compare.
func (s sweepResult) columnGeomean(p int) float64 {
	col := make([]float64, 0, len(s.table.Series))
	for _, sr := range s.table.Series {
		col = append(col, sr.Values[p])
	}
	return stats.Geomean(col)
}

// SweepNames lists the registered sweeps in order: the values
// deact-sweep's -sweep flag accepts.
func SweepNames() []string {
	var names []string
	for _, s := range (Options{}).sweeps() {
		names = append(names, s.name)
	}
	return names
}

// RunSweep runs the named registered sweep or paper grid at the runner's
// scale and returns its table.
func (r *Runner) RunSweep(ctx context.Context, name string) (stats.Table, error) {
	s, err := r.opts.sweep(name)
	if err != nil {
		return stats.Table{}, err
	}
	res, err := r.runSweep(ctx, s)
	return res.table, err
}

// sweep looks a registered sweep or paper grid up by name.
func (o Options) sweep(name string) (sweep, error) {
	for _, s := range append(paperSweeps(), o.sweeps()...) {
		if s.name == name {
			return s, nil
		}
	}
	return sweep{}, fmt.Errorf("experiments: unknown sweep %q (have %s)", name, strings.Join(SweepNames(), ", "))
}

// runSweep simulates s's grid as one batch and assembles the table.
func (r *Runner) runSweep(ctx context.Context, s sweep) (sweepResult, error) {
	points := s.points
	if s.benchColumns {
		points = nil
		for _, b := range r.opts.benchmarks() {
			points = append(points, point{label: b})
		}
	}
	// members lists the benchmarks of rw's cell at p.
	members := func(rw row, p point) []string {
		if s.benchColumns {
			return []string{p.label}
		}
		return rw.members
	}
	res := sweepResult{table: stats.Table{Title: s.title, Format: s.format}}
	for _, p := range points {
		res.table.XLabels = append(res.table.XLabels, p.label)
	}
	var rows []row
	var cfgs []core.Config
	for _, rw := range s.rows {
		if len(rw.members) == 0 && !s.benchColumns {
			continue
		}
		rows = append(rows, rw)
		for _, p := range points {
			for _, b := range members(rw, p) {
				cfg := r.config(rw.scheme, b, func(c *core.Config) {
					if rw.set != nil {
						rw.set(c)
					}
					if p.set != nil {
						p.set(c)
					}
				})
				cfgs = append(cfgs, cfg)
				if s.base != nil {
					s.base(&cfg)
					cfgs = append(cfgs, cfg)
				}
			}
		}
	}
	out, err := r.RunAll(ctx, cfgs)
	if err != nil {
		return res, err
	}
	next := 0
	for _, rw := range rows {
		runs := make([][]sweepRun, len(points))
		for p := range runs {
			for range members(rw, points[p]) {
				run := sweepRun{cfg: cfgs[next], res: out[next]}
				next++
				if s.base != nil {
					run.base = out[next]
					next++
				}
				runs[p] = append(runs[p], run)
			}
		}
		vals := make([]float64, len(points))
		for p := range vals {
			vals[p] = rw.cell(runs, p)
		}
		if err := res.table.AddSeries(rw.name, vals); err != nil {
			return res, err
		}
		res.runs = append(res.runs, runs)
	}
	return res, nil
}

// geomeanSpeedup is the §V-D y-axis: the geomean over members of each
// member's speedup over its baseline.
func geomeanSpeedup(runs [][]sweepRun, p int) float64 {
	ratios := make([]float64, 0, len(runs[p]))
	for _, m := range runs[p] {
		ratios = append(ratios, m.res.Speedup(m.base))
	}
	return stats.Geomean(ratios)
}

// speedup is a single member's plain speedup over its baseline (a geomean
// of one value is not bit-equal to the value).
func speedup(runs [][]sweepRun, p int) float64 {
	return runs[p][0].res.Speedup(runs[p][0].base)
}

// relativeIPC is IPC relative to the row's first point, the baseline column.
func relativeIPC(runs [][]sweepRun, p int) float64 {
	return runs[p][0].res.IPC / runs[0][0].res.IPC
}

// tenantP99 makes a capacity cell: the p99 in µs of the histogram hist
// picks from the steady tenants' latency (steady) or the noisy tenant 0's.
func tenantP99(steady bool, hist func(*node.TenantLatency) *stats.Histogram) cellFunc {
	const us = float64(sim.Microsecond) // histogram samples are picoseconds
	return func(runs [][]sweepRun, p int) float64 {
		m := runs[p][0]
		lat := m.res.TenantLatency(0)
		if steady {
			lat = m.res.SteadyLatency(m.cfg.Tenants)
		}
		return hist(&lat).P99() / us
	}
}

// sweepPoints makes one point per value.
func sweepPoints[T any](vals []T, label func(T) string, set func(*core.Config, T)) []point {
	pts := make([]point, len(vals))
	for i, v := range vals {
		pts[i] = point{label: label(v), set: func(c *core.Config) { set(c, v) }}
	}
	return pts
}

// labelf labels points with a format verb.
func labelf[T any](format string) func(T) string {
	return func(v T) string { return fmt.Sprintf(format, v) }
}

// selected returns the names that are in the benchmark set, in the given
// order.
func (o Options) selected(names ...string) []string {
	var out []string
	for _, n := range names {
		for _, b := range o.benchmarks() {
			if b == n {
				out = append(out, n)
				break
			}
		}
	}
	return out
}

// groupRows returns the grouping the paper uses for §V-D — the SPEC,
// PARSEC and GAP suites plus pf and dc individually (§V-D: "dc is the only
// [NPB] benchmark which has significant performance impact") — as one row
// per group and scheme, named by the scheme too when there are several.
func (o Options) groupRows(schemes ...core.Scheme) []row {
	suites := workload.Suites()
	var rows []row
	for _, g := range []struct {
		name    string
		members []string
	}{
		{"SPEC", suites["SPEC 2006"]},
		{"PARSEC", suites["PARSEC"]},
		{"GAP", suites["GAP"]},
		{"pf", []string{"pf"}},
		{"dc", []string{"dc"}},
	} {
		for _, s := range schemes {
			name := g.name
			if len(schemes) > 1 {
				name += " " + s.String()
			}
			rows = append(rows, row{name: name, scheme: s, members: o.selected(g.members...), cell: geomeanSpeedup})
		}
	}
	return rows
}

// endsCheck compares the all-groups geomean at the sweep's first and last
// point: grows claims the last is bigger, otherwise the first is. prefix
// names the swept parameter in the detail.
func endsCheck(id, claim, prefix string, grows bool) *sweepCheck {
	return &sweepCheck{id: id, claim: claim, verdict: func(res sweepResult) (bool, string) {
		hi, lo := 0, len(res.table.XLabels)-1
		if grows {
			hi, lo = lo, hi
		}
		h, l := res.columnGeomean(hi), res.columnGeomean(lo)
		return h > l, fmt.Sprintf("%s%s: %.2f× vs %s%s: %.2f×",
			prefix, res.table.XLabels[hi], h, prefix, res.table.XLabels[lo], l)
	}}
}

// steadyBenchmark returns the workload the capacity sweep's steady tenants
// run, and the prefetch sweep's first skew scenario.
func (o Options) steadyBenchmark() string {
	if o.SteadyBenchmark != "" {
		return o.SteadyBenchmark
	}
	return "sp"
}

// noisyBenchmark returns the workload the noisy tenant (tenant 0) runs.
func (o Options) noisyBenchmark() string {
	if o.NoisyBenchmark != "" {
		return o.NoisyBenchmark
	}
	return "canl"
}

// capacityShards derives the broker shard count for a capacity point: the
// explicit Options.BrokerShards (clamped to the node count), or one shard
// per two node groups so ownership-metadata contention scales with the
// fabric rather than concentrating on one pool.
func (o Options) capacityShards(nodes int) int {
	s := o.BrokerShards
	if s <= 0 {
		s = nodes / 2
	}
	if s > nodes {
		s = nodes
	}
	if s < 1 {
		s = 1
	}
	return s
}

// scenario is one workload shape of the prefetch and MLP sweeps: a catalog
// benchmark, optionally re-shaped by a v2 pattern generator.
type scenario struct {
	label   string
	bench   string
	pattern string
	degree  int // pattern degree
}

// scenarioRows crosses I-FAM and DeACT-N with the scenarios, every row
// measured as IPC relative to its first point.
func scenarioRows(scs []scenario) []row {
	var rows []row
	for _, s := range []core.Scheme{core.IFAM, core.DeACTN} {
		for _, sc := range scs {
			rows = append(rows, row{name: fmt.Sprintf("%v %s", s, sc.label), scheme: s, members: []string{sc.bench},
				set:  func(c *core.Config) { c.Pattern, c.PatternDegree = sc.pattern, sc.degree },
				cell: relativeIPC})
		}
	}
	return rows
}

// The prefetch sweep's non-swept shape: a 64-entry PC table (plenty for the
// generators' handful of PCs) and the classic 2-confirmation stream filter.
const (
	prefetchStreams   = 64
	prefetchThreshold = 2
)

// mlpSchedulerLatency fixes the MLP sweep's non-swept scheduler shape: a
// 2-cycle wakeup/select stage between a chain load completing and its
// dependent issuing.
const mlpSchedulerLatency = 2

// sweeps is the registry: every sweep, in deact-sweep's documented order,
// with rows built from o. Report and deact-sweep both draw from it.
func (o Options) sweeps() []sweep {
	steady := []string{o.steadyBenchmark()}
	var capRows []row
	for _, s := range []core.Scheme{core.IFAM, core.DeACTN} {
		capRows = append(capRows,
			row{name: fmt.Sprintf("%v steady xlate p99", s), scheme: s, members: steady,
				cell: tenantP99(true, func(l *node.TenantLatency) *stats.Histogram { return &l.Translation })},
			row{name: fmt.Sprintf("%v steady FAM p99", s), scheme: s, members: steady,
				cell: tenantP99(true, func(l *node.TenantLatency) *stats.Histogram { return &l.FAM })},
			row{name: fmt.Sprintf("%v noisy FAM p99", s), scheme: s, members: steady,
				cell: tenantP99(false, func(l *node.TenantLatency) *stats.Histogram { return &l.FAM })})
	}
	var fig16Rows []row
	for _, b := range []string{"pf", "dc"} {
		fig16Rows = append(fig16Rows, row{name: b, scheme: core.DeACTN, members: o.selected(b), cell: speedup})
	}

	return []sweep{
		{
			// Figure 13: the DeACT advantage shrinks as the STU grows.
			name:  "stu",
			title: "Figure 13: DeACT-N speedup wrt I-FAM vs STU cache entries",
			points: sweepPoints([]int{256, 512, 1024, 2048, 4096}, labelf[int]("%d"),
				func(c *core.Config, n int) { c.STUEntries = n }),
			rows: o.groupRows(core.DeACTN),
			base: withScheme(core.IFAM),
			check: endsCheck("fig13-shrinking-gain",
				"DeACT's speedup over I-FAM shrinks as the STU cache grows", "stu=", false),
		},
		{
			// §V-D1 text experiment: the improvement decreases and saturates.
			name:  "assoc",
			title: "§V-D1: DeACT-N speedup wrt I-FAM vs STU associativity",
			points: sweepPoints([]int{4, 8, 32, 64}, labelf[int]("%d-way"),
				func(c *core.Config, a int) { c.STUWays = a }),
			rows: o.groupRows(core.DeACTN),
			base: withScheme(core.IFAM),
		},
		{
			// Figure 14: DeACT-W and DeACT-N, each normalized to I-FAM at
			// the same ACM width.
			name:  "acm",
			title: "Figure 14: speedup wrt I-FAM vs ACM size",
			points: sweepPoints([]uint{8, 16, 32}, labelf[uint]("%db"),
				func(c *core.Config, w uint) { c.Layout.ACMBits = w }),
			rows: o.groupRows(core.DeACTW, core.DeACTN),
			base: withScheme(core.IFAM),
		},
		{
			// §V-D2: (tag, ACM) pairs per DeACT-N way, at the paper's 8-bit
			// ACM (1 pair ≈ DeACT-W; more pairs → faster).
			name:  "pairs",
			title: "§V-D2: DeACT-N speedup wrt I-FAM vs ACM pairs per way (8-bit ACM)",
			points: sweepPoints([]int{1, 2, 3}, labelf[int]("%d pair"), func(c *core.Config, p int) {
				c.PairsPerWay = p
				c.Layout.ACMBits = 8
			}),
			rows: o.groupRows(core.DeACTN),
			base: withScheme(core.IFAM),
			check: &sweepCheck{id: "fig14-pairs-monotone",
				claim: "more (tag, ACM) pairs per way → more speedup; one pair ≈ DeACT-W",
				verdict: func(res sweepResult) (bool, string) {
					one, two, three := res.columnGeomean(0), res.columnGeomean(1), res.columnGeomean(2)
					return three >= two && two >= one, fmt.Sprintf("1/2/3 pairs: %.2f/%.2f/%.2f×", one, two, three)
				}},
		},
		{
			// Figure 15: longer fabric → bigger DeACT advantage (1.79× even
			// at 100ns in the paper).
			name:  "fabric",
			title: "Figure 15: DeACT-N speedup wrt I-FAM vs fabric latency",
			points: sweepPoints([]sim.Time{sim.NS(100), sim.NS(250), sim.NS(500), sim.NS(750), sim.US(1), sim.US(3), sim.US(6)},
				nsLabel, func(c *core.Config, l sim.Time) { c.FabricLatency = l }),
			rows: o.groupRows(core.DeACTN),
			base: withScheme(core.IFAM),
			check: endsCheck("fig15-growing-gain",
				"longer fabric latency → bigger DeACT speedup over I-FAM", "fab=", true),
		},
		{
			// Figure 16: more nodes sharing the fabric → bigger DeACT
			// advantage (dc 2.92× → 3.26× in the paper).
			name:  "nodes",
			title: "Figure 16: DeACT-N speedup wrt I-FAM vs number of nodes",
			points: sweepPoints([]int{1, 2, 4, 8}, labelf[int]("%d"),
				func(c *core.Config, n int) { c.Nodes = n }),
			rows: fig16Rows,
			base: withScheme(core.IFAM),
			check: &sweepCheck{id: "fig16-growing-gain",
				claim: "more nodes sharing the fabric → bigger DeACT speedup over I-FAM",
				verdict: func(res sweepResult) (bool, string) {
					i := res.series("dc")
					if i < 0 {
						return false, "no dc row: dc is not in the benchmark set"
					}
					v := res.table.Series[i].Values
					one, eight := v[0], v[len(v)-1]
					return eight > one, fmt.Sprintf("dc: 1 node %.2f× vs 8 nodes %.2f×", one, eight)
				}},
		},
		{
			// Capacity planning (beyond the paper, on its §V-C multi-node
			// setup): tenant 0 on every node runs a noisy AT-sensitive
			// workload, the other tenants a steady one. How much
			// steady-tenant tail latency does the noisy neighbor cost per
			// scheme, and does growing nodes/tenants amortize or amplify it?
			// The grid scales nodes at a constant tenant count, then
			// densifies tenants at a constant node count.
			name: "capacity",
			title: fmt.Sprintf("Capacity planning: p99 latency (us) per tenant class, steady=%s vs noisy=%s",
				o.steadyBenchmark(), o.noisyBenchmark()),
			format: "%.3f",
			points: sweepPoints([][2]int{{2, 2}, {4, 2}, {4, 4}, {8, 4}},
				func(nt [2]int) string { return fmt.Sprintf("%dn/%dt", nt[0], nt[1]) },
				func(c *core.Config, nt [2]int) {
					c.Nodes, c.Tenants = nt[0], nt[1]
					c.NoisyBenchmark = o.noisyBenchmark()
					c.BrokerShards = o.capacityShards(nt[0])
				}),
			rows: capRows,
			// DeACT-N's translations stay in node-local DRAM instead of
			// queueing on the shared fabric behind the noisy tenant's walks.
			// The 10% tolerance keeps small-scale tail noise from flipping
			// the verdict.
			check: &sweepCheck{id: "capacity-deact-shields-steady",
				claim: "the noisy neighbor never inflates the steady tenants' p99 translation latency materially (>10%) beyond I-FAM's at any deployment size",
				verdict: func(res sweepResult) (bool, string) {
					ifam := res.table.Series[res.series(fmt.Sprintf("%v steady xlate p99", core.IFAM))].Values
					deact := res.table.Series[res.series(fmt.Sprintf("%v steady xlate p99", core.DeACTN))].Values
					worst := 0.0
					for i := range ifam {
						if ratio := deact[i] / ifam[i]; ratio > worst {
							worst = ratio
						}
					}
					return worst < 1.10, fmt.Sprintf("worst DeACT-N/I-FAM steady xlate p99 ratio %.3f", worst)
				}},
		},
		{
			// Prefetch interaction (beyond the paper): does prefetching hide
			// FAM translation latency (each prefetch amortizes one
			// translation across several blocks) or amplify the AT traffic
			// it rides on? Degree 0 leaves the prefetcher off, bit-identical
			// to a build without it. The scenarios span the
			// prefetch-friendliness spectrum: a streaming-heavy and a
			// chase-heavy skew benchmark, then stencil (pure strided
			// streams), pointer-chase (payload bursts only) and
			// graph-frontier (vertex scan only) on an mcf-sized footprint.
			name: "prefetch",
			title: fmt.Sprintf("Prefetch interaction: IPC relative to prefetch-off (streams=%d, threshold=%d)",
				prefetchStreams, prefetchThreshold),
			format: "%.3f",
			points: sweepPoints([]int{0, 1, 2, 4, 8}, func(d int) string {
				if d == 0 {
					return "off"
				}
				return fmt.Sprintf("deg=%d", d)
			}, func(c *core.Config, d int) {
				if d > 0 {
					c.PrefetchStreams, c.PrefetchDegree, c.PrefetchThreshold = prefetchStreams, d, prefetchThreshold
				}
			}),
			rows: scenarioRows([]scenario{
				{label: o.steadyBenchmark() + "/skew", bench: o.steadyBenchmark()},
				{label: o.noisyBenchmark() + "/skew", bench: o.noisyBenchmark()},
				{label: "mcf/stencil", bench: "mcf", pattern: workload.PatternStencil, degree: 4},
				{label: "mcf/chase", bench: "mcf", pattern: workload.PatternPointerChase, degree: 4},
				{label: "mcf/frontier", bench: "mcf", pattern: workload.PatternGraphFrontier, degree: 8},
			}),
			// The mechanism, not a fragile perf delta: on the stencil
			// streams the PC-keyed table must issue prefetches, and with
			// the prefetcher off the counters must stay exactly zero.
			check: &sweepCheck{id: "prefetch-detects-streams",
				claim: "the PC-keyed table confirms streams and issues prefetches on the stencil workload, and issues none with the prefetcher off",
				verdict: func(res sweepResult) (bool, string) {
					stencil := res.runs[res.series(fmt.Sprintf("%v mcf/stencil", core.DeACTN))]
					issued := func(label string) uint64 {
						var n uint64
						for _, ns := range stencil[res.column(label)][0].res.NodeStats {
							n += ns.Prefetch.Issued
						}
						return n
					}
					on, off := issued("deg=4"), issued("off")
					return on > 0 && off == 0, fmt.Sprintf("stencil prefetches issued: %d on, %d off", on, off)
				}},
		},
		{
			// Memory-level parallelism (beyond the paper): how much FAM
			// translation latency an OoO core hides depends on the
			// workload's dependence structure, not just its miss rate. A
			// degree-1 pointer chase is a pure dependence chain (IPC must
			// stay flat), a stencil pure independent streams (overlap
			// scales with the window), a graph frontier mixes both. The
			// miss window is coupled to the scheduling window (a W-entry
			// machine has ~W MSHRs), and W=1 is the in-order-equivalent
			// baseline column.
			name: "mlp",
			title: fmt.Sprintf("MLP: IPC relative to window=1 (OoO core, scheduler latency %d cycles, MaxOutstanding=window)",
				mlpSchedulerLatency),
			format: "%.3f",
			points: sweepPoints([]int{1, 2, 4, 8, 16, 32}, labelf[int]("W=%d"), func(c *core.Config, w int) {
				c.CoreModel, c.SchedulerLatency = core.CoreOoO, mlpSchedulerLatency
				c.WindowSize, c.MaxOutstanding = w, w
			}),
			rows: scenarioRows([]scenario{
				{label: "mcf/chase", bench: "mcf", pattern: workload.PatternPointerChase, degree: 1},
				{label: "mcf/frontier", bench: "mcf", pattern: workload.PatternGraphFrontier, degree: 8},
				{label: "mcf/stencil", bench: "mcf", pattern: workload.PatternStencil, degree: 4},
			}),
			check: &sweepCheck{id: "mlp-separates-dependence",
				claim: "widening the window speeds up the independent stencil streams substantially while the degree-1 pointer chase stays pinned to its serialized chain",
				verdict: func(res sweepResult) (bool, string) {
					gain := func(label string) float64 {
						v := res.table.Series[res.series(fmt.Sprintf("%v %s", core.DeACTN, label))].Values
						return v[res.column("W=32")]
					}
					chase, stencil := gain("mcf/chase"), gain("mcf/stencil")
					return chase < 1.05 && stencil > 1.5,
						fmt.Sprintf("W=1 to W=32 IPC gain: chase %.3fx, stencil %.3fx", chase, stencil)
				}},
		},
	}
}
