// Command deact-report regenerates every table and figure of the paper's
// evaluation and writes the paper-vs-measured report (EXPERIMENTS.md).
//
// Usage:
//
//	deact-report -out EXPERIMENTS.md
//	deact-report -capacity             # append the multi-tenant capacity section
//	deact-report -prefetch             # append the prefetch-interaction section
//	deact-report -mlp                  # append the memory-level-parallelism section
//	deact-report -parallelism 8        # bound the simulation worker pool
//	deact-report -store .deact-store   # serve repeat runs from the persistent result store
//	deact-report -cpuprofile cpu.prof  # profile the hot simulation paths
//	deact-report -memprofile mem.prof  # allocation profile after the run
//
// Independent simulations run concurrently on a worker pool of
// -parallelism slots (default: GOMAXPROCS). The report is byte-identical
// at every parallelism level for a given seed and scale.
//
// Progress (completed/total distinct simulations) streams to stderr.
// SIGINT/SIGTERM cancel the run gracefully: in-flight simulations abort at
// the next event-loop stride, the process exits nonzero, and no partial
// output file is written — the report is staged in memory and only lands
// on disk after it generated completely.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"deact/internal/cli"
	"deact/internal/experiments"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "deact-report:", err)
		os.Exit(cli.ExitCode(err))
	}
}

// run carries the whole report generation so defers (profile flush, signal
// teardown) execute on error paths too, instead of being skipped by
// os.Exit.
func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("deact-report", flag.ExitOnError)
	var (
		out    = fs.String("out", "EXPERIMENTS.md", "output file (- for stdout)")
		capSec = fs.Bool("capacity", false, "append the multi-tenant capacity-planning section (per-tenant p99 latency under a noisy neighbor); strictly additive to the base report")
		pfSec  = fs.Bool("prefetch", false, "append the prefetch-interaction section (IPC vs stream-prefetch degree across workload shapes); strictly additive to the base report")
		mlpSec = fs.Bool("mlp", false, "append the memory-level-parallelism section (IPC vs OoO scheduling-window size in ops, across workload dependence shapes); strictly additive to the base report")
	)
	defaults := experiments.DefaultOptions()
	scale := cli.ScaleFlags(fs, defaults.Warmup, defaults.Measure, defaults.Cores)
	runner := cli.RunnerFlags(fs)
	prof := cli.ProfilingFlags(fs, "the full report run")
	fs.Parse(args) // ExitOnError: a bad flag exits 2 here

	opts, err := runner.Options(scale)
	if errors.Is(err, cli.ErrUnknownBenchmark) {
		return cli.Usage(err)
	} else if err != nil {
		return err
	}

	stopCPU, err := prof.Start("deact-report")
	if err != nil {
		return err
	}
	defer stopCPU()
	opts.Capacity = *capSec
	opts.Prefetch = *pfSec
	opts.MLP = *mlpSec
	opts.OnRunDone = cli.ProgressPrinter(os.Stderr)

	if err := generate(ctx, opts, *out); err != nil {
		return err
	}
	return prof.WriteHeap()
}

// generate stages the whole report in memory and writes the output file
// only on success, so a cancelled or failed run never leaves a partial
// EXPERIMENTS.md behind.
func generate(ctx context.Context, opts experiments.Options, outPath string) error {
	var buf bytes.Buffer
	err := experiments.Report(ctx, &buf, opts)
	if opts.OnRunDone != nil {
		fmt.Fprintln(os.Stderr) // terminate the progress line
	}
	if err != nil {
		return err
	}
	if outPath == "-" {
		_, err := os.Stdout.Write(buf.Bytes())
		return err
	}
	if err := os.WriteFile(outPath, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	return nil
}
