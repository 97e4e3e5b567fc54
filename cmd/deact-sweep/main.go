// Command deact-sweep runs one sweep of the experiments registry — the
// paper's sensitivity sweeps (§V-D) and three beyond the paper — and
// prints the resulting series as a text table. The names below are the
// registry's (experiments.SweepNames), and the package tests keep this
// list equal to it.
//
// Usage:
//
//	deact-sweep -sweep stu        # Figure 13: STU cache size
//	deact-sweep -sweep assoc      # §V-D1:     STU associativity
//	deact-sweep -sweep acm        # Figure 14: metadata width
//	deact-sweep -sweep pairs      # §V-D2:     DeACT-N pairs per way
//	deact-sweep -sweep fabric     # Figure 15: fabric latency
//	deact-sweep -sweep nodes      # Figure 16: node count
//	deact-sweep -sweep capacity   # capacity planning: per-tenant p99 vs scale
//	deact-sweep -sweep prefetch   # prefetch interaction: IPC vs prefetch degree
//	deact-sweep -sweep mlp        # memory-level parallelism: IPC vs OoO window size
//	deact-sweep -sweep nodes -cpuprofile cpu.prof -memprofile mem.prof
//	deact-sweep -sweep stu -store .deact-store   # serve repeat points from the persistent result store
//
// The capacity sweep takes three extra knobs: -steady and -noisy name the
// benchmarks the steady tenants and the noisy tenant 0 run (the prefetch
// sweep's two skew rows run them too), and -broker-shards fixes how many
// shards the FAM broker's ownership state is split into (0 derives one
// shard per two nodes). Its grid (nodes × tenants) is fixed like the
// figure sweeps' points are.
//
// Every (scheme, benchmark, point) simulation of a sweep is independent;
// they run concurrently on a worker pool of -parallelism slots (default:
// GOMAXPROCS). Output is identical at every parallelism level.
// -cpuprofile/-memprofile profile the whole sweep, matching deact-report.
// Progress streams to stderr; SIGINT/SIGTERM cancel the sweep gracefully
// with a nonzero exit.
//
// Flag units match deact-sim: -warmup/-measure are instruction counts per
// core, not cycles. The defaults (60k/50k) are deliberately smaller than
// deact-report's (80k/60k): a sweep multiplies every point across schemes
// and benchmark groups, so it trades a little steady-state sharpness for
// tractable wall time. Sweep *points* (sizes, latencies, widths) are fixed
// by the corresponding figure and are not flags.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"

	"deact/internal/cli"
	"deact/internal/experiments"
	"deact/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "deact-sweep:", err)
		os.Exit(cli.ExitCode(err))
	}
}

// run carries the whole sweep so defers (profile flush) execute on error
// paths too, instead of being skipped by os.Exit. The table goes to stdout,
// progress to stderr.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("deact-sweep", flag.ExitOnError)
	var (
		sweep  = fs.String("sweep", "stu", "sweep to run: "+strings.Join(experiments.SweepNames(), ", "))
		steady = fs.String("steady", "sp", "capacity sweep: benchmark the steady tenants run")
		noisy  = fs.String("noisy", "canl", "capacity sweep: benchmark the noisy tenant 0 runs on every node")
		shards = fs.Int("broker-shards", 0, "capacity sweep: FAM broker shards per point, clamped to the node count (0 = one shard per two nodes)")
	)
	// Warmup/measure default below deact-report's 80k/60k deliberately: a
	// sweep multiplies every point across schemes and benchmark groups.
	scale := cli.ScaleFlags(fs, 60_000, 50_000, 2)
	runnerFlags := cli.RunnerFlags(fs)
	prof := cli.ProfilingFlags(fs, "the full sweep")
	fs.Parse(args) // ExitOnError: a bad flag exits 2 here

	if !slices.Contains(experiments.SweepNames(), *sweep) {
		return cli.Usage(fmt.Errorf("unknown sweep %q", *sweep))
	}
	for _, f := range []struct{ flag, name string }{{"-steady", *steady}, {"-noisy", *noisy}} {
		if _, err := workload.Get(f.name); err != nil {
			return cli.Usage(fmt.Errorf("%s: %w", f.flag, err))
		}
	}
	opts, err := runnerFlags.Options(scale)
	if errors.Is(err, cli.ErrUnknownBenchmark) {
		return cli.Usage(err)
	} else if err != nil {
		return err
	}

	stopCPU, err := prof.Start("deact-sweep")
	if err != nil {
		return err
	}
	defer stopCPU()

	opts.SteadyBenchmark, opts.NoisyBenchmark, opts.BrokerShards = *steady, *noisy, *shards
	opts.OnRunDone = cli.ProgressPrinter(stderr)
	r := experiments.New(opts)
	defer r.WaitIdle()

	tbl, err := r.RunSweep(ctx, *sweep)
	fmt.Fprintln(stderr) // terminate the progress line
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, tbl.Render())
	fmt.Fprintf(stdout, "(%d simulation runs)\n", r.CachedRuns())

	return prof.WriteHeap()
}
