package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"time"

	"deact/internal/core"
	"deact/internal/experiments"
)

// workloadDef names a workload and opens (sets up) an instance of it.
type workloadDef struct {
	name, why string
	open      func(ctx context.Context, e *env) (instance, error)
	// roundSeconds is the wall time of one round on the reference machine
	// (README.md). The timed phase runs --seconds / roundSeconds rounds, a
	// fixed amount of work, so a run on a busier or quieter machine does
	// the same work: memory that grows with the work done, such as
	// deact-serve's store and run cache, then repeats too.
	roundSeconds float64
}

// instance is one set-up workload.
type instance interface {
	// round does one fixed amount of work and checks every output; with a
	// non-nil tracer it records a span around each call into the program.
	round(ctx context.Context, tr *tracer) (roundResult, error)
	// simConfigs are the simulation configs the traced run replays layer by
	// layer: the configs the workload's own operations simulate.
	simConfigs() []core.Config
	// peakRSSMB is the peak resident set of the process that simulates.
	peakRSSMB() float64
	// simCPUSeconds is the CPU time the simulating process used since this
	// process's own CPU time read selfStart: the benchmark process itself,
	// or the whole life of the deact-serve child.
	simCPUSeconds(selfStart float64) float64
	// report adds the workload's own metrics for the human output.
	report(o *outcome, acc *roundResult, wall float64)
	close() error
}

// roundResult accumulates the operations of one or more rounds.
type roundResult struct {
	attempted, failed int
	opsMS             []float64 // host latency of every operation
	instr             uint64    // simulated instructions the round's results represent
	distinct, cached  int       // results simulated vs served from a store
	// deact-serve only.
	warmMS, coldMS, sweepMS []float64
}

func (a *roundResult) merge(b roundResult) {
	a.attempted += b.attempted
	a.failed += b.failed
	a.opsMS = append(a.opsMS, b.opsMS...)
	a.instr += b.instr
	a.distinct += b.distinct
	a.cached += b.cached
	a.warmMS = append(a.warmMS, b.warmMS...)
	a.coldMS = append(a.coldMS, b.coldMS...)
	a.sweepMS = append(a.sweepMS, b.sweepMS...)
}

// The workloads, in the order "all" runs them. Each stresses different
// layers; README.md lists which metric each one is meant to move.
var workloads = []workloadDef{
	{name: "xlate-heavy", open: openXlate, roundSeconds: 1.25,
		why: "I-FAM and DeACT-N on sssp/canl/mcf: 0.5-0.84 page walks and up to 1.6 FAM translation requests per reference"},
	{name: "stream-mlp", open: openStream, roundSeconds: 0.40,
		why: "OoO stencil streams with the prefetcher under E-FAM and DeACT-N: translation layers idle, caches and calendars busy"},
	{name: "report-golden", open: openReport, roundSeconds: 0.55,
		why: "the short golden report in-process: 148 short runs, warmup forking and pooling; byte-compared with the golden file"},
	{name: "serve-mix", open: openServe, roundSeconds: 0.21,
		why: "deact-serve under 2 closed-loop clients: Zipf-hot store hits, fresh-seed cold runs and overlapping sweeps"},
}

// simSeeds is the pool of simulation seeds the mixes draw from. The digest
// file holds the expected Result of every (shape, seed) pair, so any
// benchmark seed maps to configurations with a known answer.
var simSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}

// seedsPerShape is how many pool seeds each shape runs with per round. A
// run's memory footprint is set by its largest system; taking half the
// pool keeps that maximum, and so peak_rss_mb, nearly the same whichever
// half a benchmark seed draws.
const seedsPerShape = 4

// simShapes returns the configuration shapes of a simulation mix (seed
// unset), at the given per-core instruction budgets.
func simShapes(workload string, sc scale) []core.Config {
	var out []core.Config
	switch workload {
	case "xlate-heavy":
		for _, b := range []string{"sssp", "canl", "mcf"} {
			for _, s := range []core.Scheme{core.IFAM, core.DeACTN} {
				cfg := core.DefaultConfig()
				cfg.Benchmark, cfg.Scheme = b, s
				out = append(out, cfg)
			}
		}
	case "stream-mlp":
		for _, b := range []string{"sp", "mg", "lu"} {
			for _, s := range []core.Scheme{core.EFAM, core.DeACTN} {
				cfg := core.DefaultConfig()
				cfg.Benchmark, cfg.Scheme = b, s
				cfg.CoreModel, cfg.WindowSize, cfg.SchedulerLatency = core.CoreOoO, 32, 2
				cfg.Pattern, cfg.PrefetchStreams = "stencil", 64
				out = append(out, cfg)
			}
		}
	}
	for i := range out {
		out[i].WarmupInstructions, out[i].MeasureInstructions = sc.simWarmup, sc.simMeasure
	}
	return out
}

// simMix draws the mix one benchmark seed selects: every shape with
// seedsPerShape distinct seeds from simSeeds, in a seed-shuffled order.
func simMix(workload string, sc scale, seed int64) []core.Config {
	rng := rand.New(rand.NewSource(seed))
	var mix []core.Config
	for _, cfg := range simShapes(workload, sc) {
		for _, i := range rng.Perm(len(simSeeds))[:seedsPerShape] {
			cfg.Seed = simSeeds[i]
			mix = append(mix, cfg)
		}
	}
	rng.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
	return mix
}

// instructions is the instruction count a config's run simulates (warmup
// and measurement on every core).
func instructions(cfg core.Config) uint64 {
	return (cfg.WarmupInstructions + cfg.MeasureInstructions) * uint64(cfg.Nodes*cfg.CoresPerNode)
}

// digest is the SHA-256 of a Result's canonical JSON.
func digest(res core.Result) (string, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

func loadDigests(path string) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("digests: %w", err)
	}
	m := map[string]string{}
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("digests %s: %w", path, err)
	}
	return m, nil
}

// writeDigestFile simulates every (shape, seed) pair of both mixes and
// writes the config fingerprint → Result digest map. Run it only when the
// model changes on purpose, the same occasion the golden report is
// regenerated on.
func writeDigestFile(ctx context.Context, e *env) error {
	m := map[string]string{}
	pool := core.NewSystemPool()
	for _, w := range []string{"xlate-heavy", "stream-mlp"} {
		for _, cfg := range simShapes(w, e.scale) {
			for _, s := range simSeeds {
				cfg.Seed = s
				res, err := core.Run(ctx, cfg, core.WithPool(pool))
				if err != nil {
					return err
				}
				if m[cfg.Fingerprint()], err = digest(res); err != nil {
					return err
				}
			}
		}
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(e.digests, append(b, '\n'), 0o644)
}

// simInstance runs a mix of core.Runs one after another on one goroutine,
// drawing every system from one SystemPool.
type simInstance struct {
	cfgs []core.Config
	fps  []string
	want map[string]string
	pool *core.SystemPool
}

func openXlate(ctx context.Context, e *env) (instance, error) {
	return openSim(ctx, e, "xlate-heavy")
}

func openStream(ctx context.Context, e *env) (instance, error) {
	return openSim(ctx, e, "stream-mlp")
}

// openSim loads the expected digests, draws the mix and warms the pool by
// building (not running) every system of the mix once.
func openSim(_ context.Context, e *env, workload string) (instance, error) {
	want, err := loadDigests(e.digests)
	if err != nil {
		return nil, err
	}
	si := &simInstance{cfgs: simMix(workload, e.scale, e.seed), want: want, pool: core.NewSystemPool()}
	var built []*core.System
	for _, cfg := range si.cfgs {
		si.fps = append(si.fps, cfg.Fingerprint())
		s, err := core.NewSystem(cfg, core.WithPool(si.pool))
		if err != nil {
			return nil, err
		}
		built = append(built, s)
	}
	for _, s := range built {
		s.Recycle(si.pool)
	}
	return si, nil
}

func (si *simInstance) round(ctx context.Context, tr *tracer) (roundResult, error) {
	var rr roundResult
	for i, cfg := range si.cfgs {
		t0 := time.Now()
		res, err := runSim(ctx, cfg, si.pool, tr)
		ms := msSince(t0)
		rr.attempted++
		rr.distinct++
		rr.opsMS = append(rr.opsMS, ms)
		rr.instr += instructions(cfg)
		if err != nil {
			rr.failed++
			continue
		}
		d, err := digest(res)
		if err != nil || d != si.want[si.fps[i]] {
			rr.failed++
		}
	}
	return rr, nil
}

// runSim is one pooled core.Run; traced, it spans construction and the
// run separately and records the reference stream.
func runSim(ctx context.Context, cfg core.Config, pool *core.SystemPool, tr *tracer) (core.Result, error) {
	if tr == nil {
		return core.Run(ctx, cfg, core.WithPool(pool))
	}
	root := tr.begin("core.Run", -1)
	defer tr.end(root)
	b := tr.begin("core.NewSystem", root)
	s, err := core.NewSystem(cfg, core.WithPool(pool), core.WithTraceRecorder(newRecorder(cfg)))
	tr.end(b)
	if err != nil {
		return core.Result{}, err
	}
	r := tr.begin("System.Run", root)
	res, err := s.Run(ctx)
	tr.end(r)
	s.Recycle(pool)
	return res, err
}

func (si *simInstance) simConfigs() []core.Config              { return si.cfgs }
func (si *simInstance) peakRSSMB() float64                     { return selfPeakRSSMB() }
func (si *simInstance) simCPUSeconds(t0 float64) float64       { return selfCPUSeconds() - t0 }
func (si *simInstance) report(*outcome, *roundResult, float64) {}
func (si *simInstance) close() error                           { return nil }

// reportOptions are the CI golden-report flags (-warmup 4000 -measure 4000
// -cores 1 -benchmarks mcf,canl,sp,dc -parallelism 2 -capacity) plus
// -share-warmup, which the golden job holds byte-identical as well.
func reportOptions() experiments.Options {
	return experiments.Options{Warmup: 4000, Measure: 4000, Cores: 1, Seed: 42,
		Benchmarks: []string{"mcf", "canl", "sp", "dc"}, Parallelism: 2,
		ShareWarmup: true, Capacity: true}
}

// reportInstance generates the short report in-process and compares its
// bytes with the golden file. The golden file pins the seed, so the
// benchmark seed is not used.
type reportInstance struct {
	golden []byte
}

func openReport(_ context.Context, e *env) (instance, error) {
	g, err := os.ReadFile(e.golden)
	if err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	return &reportInstance{golden: g}, nil
}

func (ri *reportInstance) round(ctx context.Context, tr *tracer) (roundResult, error) {
	var rr roundResult
	opts := reportOptions()
	root := -1
	opts.OnRunDone = func(info experiments.RunInfo) {
		rr.instr += instructions(info.Config)
		rr.distinct++
		if info.Cached {
			rr.cached++
		}
		if tr != nil {
			tr.mark("experiments.RunDone", root)
		}
	}
	var buf bytes.Buffer
	if tr != nil {
		root = tr.begin("experiments.Report", -1)
	}
	t0 := time.Now()
	err := experiments.Report(ctx, &buf, opts)
	rr.opsMS = append(rr.opsMS, msSince(t0))
	if tr != nil {
		tr.end(root)
	}
	rr.attempted = 1
	if err != nil || !bytes.Equal(buf.Bytes(), ri.golden) {
		rr.failed = 1
	}
	return rr, nil
}

// simConfigs is the report's default scheme × benchmark grid under the two
// translating schemes, at the report's scale.
func (ri *reportInstance) simConfigs() []core.Config {
	opts := reportOptions()
	var out []core.Config
	for _, b := range opts.Benchmarks {
		for _, s := range []core.Scheme{core.IFAM, core.DeACTN} {
			cfg := core.DefaultConfig()
			cfg.Benchmark, cfg.Scheme, cfg.Seed = b, s, opts.Seed
			cfg.CoresPerNode = opts.Cores
			cfg.WarmupInstructions, cfg.MeasureInstructions = opts.Warmup, opts.Measure
			out = append(out, cfg)
		}
	}
	return out
}

func (ri *reportInstance) peakRSSMB() float64                     { return selfPeakRSSMB() }
func (ri *reportInstance) simCPUSeconds(t0 float64) float64       { return selfCPUSeconds() - t0 }
func (ri *reportInstance) report(*outcome, *roundResult, float64) {}
func (ri *reportInstance) close() error                           { return nil }

// maxSetups bounds the set-ups of a workload whose set-up is very short.
const maxSetups = 1000

// timedRun sets the workload up setupReps times, and more while less than
// setupTime has passed (setup_s is the median CPU time of a set-up alone,
// and a short set-up is repeated until its median is steady), runs one checked warm-up round outside any
// measurement, so pools, lazily built tables and the store are in the
// state every later round sees, then runs the timed phase's fixed number
// of rounds and reports the end-to-end metrics.
//
// The gated metrics count the host CPU time of the process that simulates,
// not wall time: on a machine shared with other tenants, wall time also
// counts the time our CPUs ran someone else's work. Wall-time figures are
// printed beside them.
func timedRun(ctx context.Context, e *env, w *workloadDef) (outcome, error) {
	var setups []float64
	var inst instance
	start := time.Now()
	for len(setups) < e.scale.setupReps || time.Since(start) < e.scale.setupTime && len(setups) < maxSetups {
		if inst != nil {
			if err := inst.close(); err != nil {
				return outcome{}, err
			}
			inst = nil // its pool is garbage before the next set-up
		}
		// Each set-up and each round starts from a collected heap, so the
		// previous one's garbage does not decide the next one's cost or
		// peak resident set.
		runtime.GC()
		c0 := selfCPUSeconds()
		var err error
		if inst, err = w.open(ctx, e); err != nil {
			return outcome{}, err
		}
		setups = append(setups, inst.simCPUSeconds(c0))
	}
	defer inst.close()
	runtime.GC()
	acc, err := inst.round(ctx, nil)
	if err != nil {
		return outcome{}, err
	}
	acc = roundResult{attempted: acc.attempted, failed: acc.failed}

	var walls []float64
	var cpus []float64
	for r := 0; r < max(e.scale.minRounds, int(e.seconds/w.roundSeconds+0.5)); r++ {
		runtime.GC()
		c0 := inst.simCPUSeconds(0)
		t0 := time.Now()
		rr, err := inst.round(ctx, nil)
		if err != nil {
			return outcome{}, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		cpus = append(cpus, inst.simCPUSeconds(0)-c0)
		acc.merge(rr)
	}
	rounds := float64(len(walls))
	cpu := median(cpus)
	wall := median(walls)
	perRound := float64(acc.instr) / rounds / 1e6
	o := outcome{attempted: acc.attempted, failed: acc.failed}
	o.add("setup_s", median(setups), "s", true, fmt.Sprintf("CPU time, median of %d set-ups", len(setups)))
	o.add("cpu_s", cpu, "s", true, fmt.Sprintf("CPU time per round, median of %.0f rounds of fixed work, min %.4g max %.4g",
		rounds, slices.Min(cpus), slices.Max(cpus)))
	o.add("sim_minstr_per_cpu_s", perRound/cpu, "Minstr/s", true, "instructions per round over cpu_s")
	o.add("peak_rss_mb", inst.peakRSSMB(), "MB", true, "VmHWM of the simulating process")
	o.add("wall_s", wall, "s", false, fmt.Sprintf("wall time per round, median of %.0f rounds", rounds))
	o.add("sim_minstr_per_s", perRound/wall, "Minstr/s", false, "instructions per round over wall_s")
	o.add("op_ms_p50", quantile(acc.opsMS, 0.50), "ms", false, fmt.Sprintf("wall, %d ops", len(acc.opsMS)))
	o.add("op_ms_p90", quantile(acc.opsMS, 0.90), "ms", false, "wall, "+beyond(len(acc.opsMS), 0.90))
	inst.report(&o, &acc, wall)
	return o, nil
}
