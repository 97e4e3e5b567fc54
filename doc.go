// Package deact is a from-scratch Go reproduction of "DeACT:
// Architecture-Aware Virtual Memory Support for Fabric Attached Memory
// Systems" (Kommareddy, Hughes, Awad, Hammond — HPCA 2021).
//
// The library lives under internal/: a discrete-event architectural
// simulator (sim, memdev, cache, tlb, pagetable, cpu, fabric), the FAM
// system substrates the paper depends on (broker, acm, stu, translator,
// node), the assembled system and its four virtual-memory schemes (core),
// the synthetic Table III workload suite (workload), and the Runner that
// regenerates every table and figure of the paper's evaluation
// (experiments), each one entry of a single registry of declarative grids
// whose claim checks read the finished grid.
//
// Run orchestration is context-aware and identity-safe.
// core.Run(ctx, cfg, opts...) simulates one fully-built core.Config and
// observes cancellation cooperatively: the event loop runs in coarse
// simulated-time strides with a ctx check between them, so a SIGINT aborts
// a multi-minute report run in sub-second wall time without perturbing
// event order (results are byte-identical to an uncancelled drain). The
// construction/run surface is options-form: core.WithPool recycles
// construction memory, core.WithSnapshot forks a run from a warmup
// snapshot, core.WithWarmupHook observes the warmup/measure boundary. Run
// identity is core.Config.Fingerprint(): a canonical hash over every
// exported field (reflection-walked, so new fields cannot be silently
// omitted) after normalizing derived fields. experiments.Runner
// deduplicates on that fingerprint alone — callers Submit(ctx, cfg) or
// SubmitAll(ctx, cfgs) and get Futures, or batch with RunAll(ctx, cfgs);
// identical configs share one simulation and distinct configs can never
// alias one cache slot the way hand-written string keys could. A deduplicated waiter that cancels unblocks with its
// own ctx.Err() while the shared computation keeps running for the
// remaining waiters; the last waiter detaching cancels it, and the worker
// pool stops admitting cancelled work. Options.OnRunDone streams
// completed/total progress (the cmds render it on stderr), and
// Config.Validate reports wrapped core.ErrInvalidConfig sentinel errors.
//
// The Runner schedules its hundreds of independent simulations on a
// worker pool (experiments.Options.Parallelism; the cmds expose it as
// -parallelism, default GOMAXPROCS), so full-report regeneration scales
// with core count while staying byte-identical to serial execution at the
// same seed.
//
// The per-reference hot path is allocation-free in steady state: the sim
// engine stores events by value in an indexed 4-ary heap and offers a
// closure-free scheduling API (sim.Handler / Engine.ScheduleHandler) that
// self-rescheduling components like cpu.Core implement directly; resource
// calendars, page tables, ACM metadata and translation caches are all
// array-backed. Cache replacement is exact LRU held in per-set rank words
// (one uint64 of 4-bit way indices, so caches are at most 16-way;
// property-tested bit-identical to a per-way stamp oracle kept in the
// tests), so hit promotion and victim selection are constant-width bit
// operations. One core.Run
// simulates roughly 8× faster than the pointer-heap/map-backed engine it
// replaced, with ~98% fewer allocations (see CHANGES.md for the measured
// trajectory; BenchmarkEngine, BenchmarkCoreRun and BenchmarkCacheAccess
// are the guards).
//
// Construction memory is recycled: core.SystemPool (backed by
// internal/arena) hands the large zeroed arrays a System is built from —
// ACM chunk slabs, the broker owner table, translator lines, cache line
// arrays, page-table arenas, OS backing tables — from run to run,
// clearing instead of reallocating. The experiments Runner keeps one pool
// per worker slot, so a full report's hundreds of runs amortize
// construction down to the structures a config actually resizes; recycled
// runs are bit-identical to fresh ones (TestPooledRunMatchesUnpooled and
// the golden-report job hold this). The package-level Example in
// example_test.go is the compile-checked Runner tour.
//
// Warmup is shared across the points of one batch. core.System.Snapshot
// deep-copies all mutable simulation state into a plain value at the
// warmup/measure boundary — the one quiescent point where the event queue
// is empty and every core has retired — and core.System.Restore rewinds a
// freshly built system to it, guarded by core.Config.WarmupFingerprint
// (the Fingerprint reflection walk minus MeasureInstructions, the only
// field that cannot shape warmup state). With
// experiments.Options.ShareWarmup (cmds: -share-warmup), Runner.SubmitAll
// groups the distinct runs of one batch by warmup fingerprint: the first
// run of each group that misses the result store simulates the shared
// prefix once and, if another run of the group is unfinished, captures a
// snapshot at the boundary (while its own measured phase continues); every
// other run waits before taking a worker slot and forks from the snapshot
// (RunInfo.Forked). A run alone in its group captures nothing, runs of
// different batches never share, and a snapshot is garbage once its
// group's runs finish. Forked runs are bit-identical to cold runs
// (TestForkedRunMatchesCold and TestSharedWarmupByteIdentical hold this);
// BenchmarkSnapshotFork measures the per-point saving — the measured phase
// alone instead of warmup+measure.
//
// Contention is modeled by a batched calendar engine (package sim): each
// memory-device bank, controller port, fabric link direction and STU port
// is a sim.Server whose in-order arrivals pay a tail compare and whose
// out-of-order arrivals book into a small gap calendar, searched by
// galloping back from its latest-ending gap, so the common shallow case
// (a few gaps ending after the arrival) pays a few compares. When the gap
// slice fills, it drops the prefix of windows that closed before the
// engine clock (sim.Clock, wired by core.NewSystem), growing only while
// more than half of it is live — exact, O(1)-amortized retirement with no
// pruning calls from outside. Grants are bit-identical to an unpruned
// sorted-interval calendar kept in the sim tests as the oracle
// (cross-checked property-style and by FuzzServerMatchesResource), so
// reports at a fixed seed are byte-identical across rewrites. BenchmarkMemdevAccess and BenchmarkFabricTraverse guard the
// device-level cost (~tens of ns and 0 allocs per access); the cache
// hierarchy adds a per-set MRU way cache so repeat hits skip the way scan.
//
// Entry points:
//
//   - cmd/deact-sim     — run one benchmark under one scheme (SIGINT
//     cancels cooperatively; -trace-out/-trace-in record and replay)
//   - cmd/deact-sweep   — run one sensitivity sweep (§V-D, -parallelism N,
//     -share-warmup, -cpuprofile/-memprofile, live progress on stderr)
//   - cmd/deact-report  — regenerate EXPERIMENTS.md (all tables/figures,
//     -parallelism N, -share-warmup, -cpuprofile/-memprofile, live
//     progress; a cancelled run exits nonzero and writes no partial
//     output)
//   - cmd/benchgate     — CI benchmark-regression gate (median time/op and
//     allocs/op budgets over `go test -bench` output)
//   - cmd/doccheck      — docs CI check (extracts fenced Go snippets from
//     the markdown docs and vets them; verifies relative links)
//   - examples/         — five runnable walkthroughs; quickstart tours the
//     Runner API (Submit, futures, OnRunDone progress)
//   - bench_test.go     — one testing.B benchmark per table and figure
//     (-short selects the CI smoke scale)
//
// CI (.github/workflows/ci.yml) runs go build, go vet, staticcheck (SA
// checks, pinned), a gofmt check, go test -race, an examples smoke run
// (quickstart at tiny scale, so API drift in the walkthroughs fails PRs),
// a docs job (cmd/doccheck over README.md/ARCHITECTURE.md/ROADMAP.md/
// CHANGES.md), a one-iteration -short -benchmem benchmark smoke (uploaded
// as a build artifact), a benchmark-regression gate that reruns
// BenchmarkEngine/BenchmarkCoreRun on the PR base and fails on >20%
// median time/op or any allocs/op growth (cmd/benchgate; benchstat
// renders the human-readable delta), and a golden-report determinism job
// that diffs a short-scale cmd/deact-report run against
// testdata/golden-report-short.md — cold, with -share-warmup (enabling
// sharing must not change a byte) and through a cold and a warm result
// store.
//
// README.md is the quickstart (the three cmds, the local smoke tier, the
// golden-file regeneration recipe); ARCHITECTURE.md maps the paper's
// pipeline onto the packages and walks the config → fingerprint → Runner
// → System → engine → stats → report dataflow.
package deact
