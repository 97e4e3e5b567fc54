package cpu

import (
	"math/rand/v2"
	"slices"
	"testing"

	"deact/internal/sim"
	"deact/internal/workload"
)

func ooocfg(budget uint64, window, schedLat int) Config {
	c := cfg(budget)
	c.WindowSize, c.SchedulerLatency = window, schedLat
	return c
}

func TestOoOConfigValidate(t *testing.T) {
	if err := ooocfg(100, 1, 0).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := ooocfg(100, 32, 2).Validate(); err != nil {
		t.Fatal(err)
	}
	for i, c := range []Config{ooocfg(100, 0, 0), ooocfg(100, -1, 0), ooocfg(100, 4, -1)} {
		if err := c.Validate(); err == nil {
			t.Errorf("bad scheduler config %d accepted", i)
		}
	}
}

// inOrderCore is the reference in-order core: a copy of the dedicated
// in-order step the production core replaced with its one-entry window.
// Every dependent load stalls the core until its data returns; independent
// references overlap up to MaxOutstanding. It has no chain register and no
// run-ahead state, so it computes the in-order schedule independently of
// Core.step.
type inOrderCore struct {
	cfg    Config
	gen    workload.Source
	access AccessFunc
	engine *sim.Engine
	win    window

	instrs, memOps, blockedOps uint64
	finishedAt                 sim.Time
	done                       bool
}

func (c *inOrderCore) Handle(now sim.Time) {
	if c.done {
		return
	}
	if c.instrs >= c.cfg.Instructions {
		c.retire(now)
		return
	}
	op := c.gen.Next()
	c.instrs += uint64(op.Compute) + 1
	c.memOps++

	cycles := (uint64(op.Compute) + uint64(c.cfg.IssueWidth)) / uint64(c.cfg.IssueWidth)
	issueAt := now + sim.Time(cycles)*c.cfg.CycleTime

	done, err := c.access(issueAt, c.cfg.ID, op)
	if err != nil {
		panic(err)
	}

	next := issueAt
	if op.Blocking {
		c.blockedOps++
		next = done
	} else {
		c.win.drain(issueAt)
		if len(c.win) == c.cfg.MaxOutstanding {
			if earliest := c.win.min(); earliest > next {
				next = earliest
			}
			c.win.drain(next)
		}
		c.win.insert(done)
	}
	c.engine.ScheduleHandler(next, c)
}

func (c *inOrderCore) retire(now sim.Time) {
	end := now
	if len(c.win) > 0 && c.win.max() > end {
		end = c.win.max()
	}
	c.win.reset()
	c.finishedAt = end
	c.done = true
}

// TestOoOWindowOneMatchesInOrder is the randomized in-order oracle: the
// production core with a one-entry window and a zero-latency scheduler must
// reproduce inOrderCore's schedule exactly — every issue time, the counters
// and the finish time — across random seeds, dependence mixes, miss-window
// sizes and access latencies.
func TestOoOWindowOneMatchesInOrder(t *testing.T) {
	prng := rand.New(rand.NewPCG(20261018, 1))
	for _, chase := range []float64{0, 0.3, 1.0} {
		for trial := 0; trial < 12; trial++ {
			c := ooocfg(4000+prng.Uint64N(16000), 1, 0)
			c.IssueWidth = 1 + prng.IntN(4)
			c.MaxOutstanding = 1 + prng.IntN(64)
			prof := workload.Profile{
				Name: "oracle", Suite: "test",
				FootprintPages: 16 + prng.Uint64N(256), MemPer1000: 50 + prng.IntN(900), ChaseProb: chase,
			}
			genSeed, latSeed := prng.Int64(), prng.Uint64()
			maxLat := 1 + prng.Uint64N(uint64(sim.NS(2000)))
			gen := func() workload.Source {
				g, err := workload.NewGenerator(prof, genSeed)
				if err != nil {
					t.Fatal(err)
				}
				return g
			}
			// access draws the same latency sequence for both cores (one in
			// eight returns at once), so equal schedules see equal
			// latencies, and records every issue time.
			access := func() (AccessFunc, *[]sim.Time) {
				lat := rand.New(rand.NewPCG(latSeed, 2))
				issues := new([]sim.Time)
				return func(now sim.Time, id int, op workload.Op) (sim.Time, error) {
					*issues = append(*issues, now)
					if lat.IntN(8) == 0 {
						return now, nil
					}
					return now + sim.Time(lat.Uint64N(maxLat)), nil
				}, issues
			}

			gotAcc, gotIssues := access()
			got, err := New(c, gen(), gotAcc)
			if err != nil {
				t.Fatal(err)
			}
			e := sim.NewEngine()
			got.Start(e)
			e.Run(0)

			wantAcc, wantIssues := access()
			want := &inOrderCore{cfg: c, gen: gen(), access: wantAcc, engine: sim.NewEngine(), win: newWindow(c.MaxOutstanding)}
			want.engine.ScheduleHandler(0, want)
			want.engine.Run(0)

			if !got.Done() || got.Err() != nil || !want.done {
				t.Fatalf("chase=%v trial %d: run incomplete (err=%v)", chase, trial, got.Err())
			}
			if got.Instructions() != want.instrs || got.MemOps() != want.memOps ||
				got.BlockedOps() != want.blockedOps || got.FinishedAt() != want.finishedAt {
				t.Fatalf("chase=%v trial %d (%+v): core %d/%d/%d/%d vs in-order %d/%d/%d/%d",
					chase, trial, c,
					got.Instructions(), got.MemOps(), got.BlockedOps(), got.FinishedAt(),
					want.instrs, want.memOps, want.blockedOps, want.finishedAt)
			}
			if g, w := *gotIssues, *wantIssues; !slices.Equal(g, w) {
				i := 0
				for i < min(len(g), len(w)) && g[i] == w[i] {
					i++
				}
				t.Fatalf("chase=%v trial %d (%+v): issue times diverge at reference %d of %d/%d",
					chase, trial, c, i, len(g), len(w))
			}
		}
	}
}

// scriptSource replays a fixed op sequence — a deterministic probe for the
// scheduler's run-ahead accounting.
type scriptSource struct {
	ops []workload.Op
	i   int
}

func (s *scriptSource) Next() workload.Op {
	op := s.ops[s.i%len(s.ops)]
	s.i++
	return op
}
func (s *scriptSource) SetTenant(uint8)                      {}
func (s *scriptSource) Tenant() uint8                        { return 0 }
func (s *scriptSource) State() workload.GeneratorState       { return workload.GeneratorState{} }
func (s *scriptSource) RestoreState(workload.GeneratorState) {}

// TestOoORunAheadBoundedByWindow pins the window semantics exactly: after an
// incomplete dependent load, the core issues precisely WindowSize-1 further
// ops, then stalls until the load completes.
func TestOoORunAheadBoundedByWindow(t *testing.T) {
	const window = 4
	const chainLat = sim.Time(1_000_000) // 1µs, far beyond the step gaps
	ops := make([]workload.Op, 10)
	ops[0].Blocking = true
	var chainDone sim.Time
	earlyIssues := 0
	acc := func(now sim.Time, id int, op workload.Op) (sim.Time, error) {
		if op.Blocking {
			chainDone = now + chainLat
			return chainDone, nil
		}
		if now < chainDone {
			earlyIssues++
		}
		return now + 1, nil
	}
	c := ooocfg(uint64(len(ops)), window, 0)
	core, err := New(c, &scriptSource{ops: ops}, acc)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	core.Start(e)
	e.Run(0)
	if !core.Done() || core.Err() != nil {
		t.Fatalf("core not done: err=%v", core.Err())
	}
	if earlyIssues != window-1 {
		t.Fatalf("issued %d ops past the incomplete chain load, want exactly %d", earlyIssues, window-1)
	}
}

// TestOoOWiderWindowRunsFaster: on a mixed dependent/independent stream the
// run-ahead window hides independent work under chain latency, so a wider
// window must finish strictly earlier. Deterministic (same seed, same
// latencies), so strict inequality is stable.
func TestOoOWiderWindowRunsFaster(t *testing.T) {
	run := func(window int) sim.Time {
		e := sim.NewEngine()
		acc := func(now sim.Time, id int, op workload.Op) (sim.Time, error) {
			return now + sim.NS(200) + sim.Time(op.Addr%503), nil
		}
		core, err := New(ooocfg(20000, window, 0), testGen(t, 0.5), acc)
		if err != nil {
			t.Fatal(err)
		}
		core.Start(e)
		e.Run(0)
		return core.FinishedAt()
	}
	narrow, wide := run(1), run(8)
	if wide >= narrow {
		t.Fatalf("window=8 finished at %v, window=1 at %v — run-ahead bought nothing", wide, narrow)
	}
}

// TestOoOSchedulerLatencySerializes: on a pure pointer chase every op waits
// on the chain register, so a nonzero wakeup latency must push the finish
// time strictly later.
func TestOoOSchedulerLatencySerializes(t *testing.T) {
	run := func(schedLat int) sim.Time {
		e := sim.NewEngine()
		acc := func(now sim.Time, id int, op workload.Op) (sim.Time, error) {
			return now + sim.NS(100), nil
		}
		core, err := New(ooocfg(10000, 1, schedLat), testGen(t, 1.0), acc)
		if err != nil {
			t.Fatal(err)
		}
		core.Start(e)
		e.Run(0)
		return core.FinishedAt()
	}
	fast, slow := run(0), run(8)
	if slow <= fast {
		t.Fatalf("schedLat=8 finished at %v, schedLat=0 at %v — wakeup stage free", slow, fast)
	}
}

// TestOoORetireDrainsScheduler: a retired OoO core is quiescent — capture,
// restore and resume must work even when the final op left run-ahead state
// behind, because retire drains it.
func TestOoORetireDrainsScheduler(t *testing.T) {
	e := sim.NewEngine()
	acc := func(now sim.Time, id int, op workload.Op) (sim.Time, error) {
		return now + sim.NS(50), nil
	}
	core, err := New(ooocfg(1000, 8, 2), testGen(t, 0.4), acc)
	if err != nil {
		t.Fatal(err)
	}
	core.Start(e)
	e.Run(0)
	if !core.Done() {
		t.Fatal("core did not retire")
	}
	var st State
	core.CaptureState(&st) // must not panic: retire drained the scheduler
	first := core.FinishedAt()
	core.RestoreState(&st)
	core.SetBudget(2000)
	core.Start(e)
	e.Run(0)
	if !core.Done() || core.Instructions() < 2000 {
		t.Fatalf("resume incomplete: %d instructions", core.Instructions())
	}
	if core.FinishedAt() <= first {
		t.Fatal("time did not advance after restore")
	}
}
