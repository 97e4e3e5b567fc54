// Command perfbench is the repository benchmark: one command that runs a
// named workload against the simulator, checks every output it produces,
// and prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics and the per-reference ledger) followed by one JSON result line.
//
//	bash perfbench/run.sh --workload xlate-heavy --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 5 --trace 1
//
// run.sh builds this binary and cmd/deact-serve from the checkout's source
// and passes their locations; README.md in this directory lists every
// metric, the workloads and what each layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// env is everything a workload needs from the command line and the
// checkout. Tests build one directly with a smaller scale.
type env struct {
	root     string // checkout root: testdata/ lives here
	work     string // scratch directory inside the checkout
	serveBin string // built cmd/deact-serve
	golden   string // expected report bytes
	digests  string // expected Result digests for the simulation mixes
	seed     int64
	seconds  float64
	scale    scale
	out      io.Writer // human-readable lines
}

// scale sets the instruction budgets of the simulation workloads. The
// benchmark uses defaultScale; the benchmark's own tests shrink it.
type scale struct {
	simWarmup, simMeasure     uint64        // xlate-heavy and stream-mlp, per core
	serveWarmup, serveMeasure uint64        // deact-serve flags, per core
	minRounds                 int           // rounds the timed phase runs at least
	setupReps                 int           // set-ups per run at least; setup_s is their median
	setupTime                 time.Duration // keep setting up until this much wall time has passed
}

var defaultScale = scale{
	simWarmup: 10_000, simMeasure: 10_000,
	serveWarmup: 10_000, serveMeasure: 10_000,
	minRounds: 5, setupReps: 9, setupTime: 250 * time.Millisecond,
}

// outcome is one workload run: the correctness tally and every metric,
// in print order.
type outcome struct {
	attempted, failed int
	metrics           []metric
}

type metric struct {
	name  string
	value float64
	unit  string
	note  string // human output only: sample counts, scope
	json  bool   // part of the JSON result line
}

func (o *outcome) add(name string, v float64, unit string, inJSON bool, note string) {
	o.metrics = append(o.metrics, metric{name: name, value: v, unit: unit, json: inJSON, note: note})
}

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name, or \"all\"")
	seed := fs.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := fs.Float64("seconds", 20, "length of the timed phase in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	root := fs.String("root", ".", "checkout root")
	serveBin := fs.String("serve-bin", "", "path of the built deact-serve binary")
	digests := fs.String("digests", "", "expected Result digests (default <root>/perfbench/digests.json)")
	golden := fs.String("golden", "", "expected report (default <root>/testdata/golden-report-short.md)")
	writeDigests := fs.Bool("write-digests", false, "regenerate the digest file from the current model and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	e := &env{
		root: *root, work: filepath.Join(*root, ".bench_build", "perfbench"),
		serveBin: *serveBin, golden: *golden, digests: *digests,
		seed: *seed, seconds: *seconds, scale: defaultScale, out: stdout,
	}
	if e.golden == "" {
		e.golden = filepath.Join(e.root, "testdata", "golden-report-short.md")
	}
	if e.digests == "" {
		e.digests = filepath.Join(e.root, "perfbench", "digests.json")
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return err
	}
	if *writeDigests {
		return writeDigestFile(ctx, e)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *traced)
	}
	var names []string
	switch {
	case *name == "all":
		for _, w := range workloads {
			names = append(names, w.name)
		}
	case lookup(*name) != nil:
		names = []string{*name}
	default:
		return fmt.Errorf("unknown workload %q (want one of %v or all)", *name, workloadNames())
	}
	fmt.Fprintf(stdout, "# machine: %s\n", machineTag())
	for _, n := range names {
		o, err := runWorkload(ctx, e, lookup(n), *traced == 1)
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		if err := printOutcome(stdout, n, e, *traced == 1, o); err != nil {
			return err
		}
	}
	return nil
}

// runWorkload runs the timed phase, or with traced the traced pass.
func runWorkload(ctx context.Context, e *env, w *workloadDef, traced bool) (outcome, error) {
	if traced {
		return tracedRun(ctx, e, w)
	}
	return timedRun(ctx, e, w)
}

func printOutcome(w io.Writer, name string, e *env, traced bool, o outcome) error {
	fmt.Fprintf(w, "# workload %s seed=%d seconds=%g trace=%v\n", name, e.seed, e.seconds, traced)
	for _, m := range o.metrics {
		line := fmt.Sprintf("%-36s %14.6g %s", m.name, m.value, m.unit)
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%-36s %14.6g %s  (%d failed of %d attempted)\n", "failed_frac",
		frac(float64(o.failed), float64(o.attempted)), "frac", o.failed, o.attempted)

	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]jm{}
	for _, m := range o.metrics {
		if m.json {
			ms[m.name] = jm{m.value, m.unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{o.failed == 0 && o.attempted > 0, o.attempted, o.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

func workloadNames() []string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	sort.Strings(ns)
	return ns
}

func lookup(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
