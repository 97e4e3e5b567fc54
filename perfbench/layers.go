package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"deact/internal/acm"
	"deact/internal/addr"
	"deact/internal/cache"
	"deact/internal/core"
	"deact/internal/experiments"
	"deact/internal/fabric"
	"deact/internal/memdev"
	"deact/internal/node"
	"deact/internal/pagetable"
	"deact/internal/resultstore"
	"deact/internal/sim"
	"deact/internal/tlb"
	"deact/internal/trace"
	"deact/internal/workload"
)

// The per-reference layers the replay passes time, in ledger order. The
// ledger predicts host ns per reference as the sum over these of
// calls per reference × ns per call. acm.Check runs inside the STU's calls,
// so its time is part of the stu term and it is timed but not summed.
var ledgerLayers = []string{"workload", "tlb", "pagetable", "cache", "stu", "translator", "memdev", "fabric"}

// layerAcc sums replay timings and run counters over a workload's configs.
type layerAcc struct {
	ns, calls map[string]float64 // replayed host ns and calls per layer
	refs      float64            // measured-phase references replayed
	checks    int                // replay outputs compared with the run's
	mismatch  int                // comparisons that disagreed
	streams   []streamCheck      // derived stream lengths against the run's counters

	e2eNS, e2eRefs float64 // untraced core.Run host time, and every reference it made

	memOps, walks, famat, famData, fired, packets uint64
	stuCalls, stuSteps, stuXHit, stuXMiss         uint64
	acmHit, acmMiss, trHit, trMiss, l1Hit, l1Acc  uint64
	dramAcc, famAcc                               uint64
	slotStallPS                                   float64
	instr, ipcW, mpkiW                            float64
	famBusyPS, famCapPS, fabBusyPS, fabCapPS      float64

	buildMS, snapMS, forkMS []float64
	results                 []core.Result
}

func newLayerAcc() *layerAcc {
	return &layerAcc{ns: map[string]float64{}, calls: map[string]float64{}}
}

// check records one comparison of a replay output with the run's; a
// failed one is named on standard error.
func (la *layerAcc) check(ok bool, what string) {
	la.checks++
	if !ok {
		la.mismatch++
		fmt.Fprintf(os.Stderr, "perfbench: replay check failed: %s\n", what)
	}
}

func (la *layerAcc) time(layer string, calls int, f func()) {
	t0 := time.Now()
	f()
	la.ns[layer] += float64(time.Since(t0).Nanoseconds())
	la.calls[layer] += float64(calls)
}

// perRef is the layer's calls per measured reference. The workload layer
// is timed over the whole stream, warmup included, but serves exactly one
// Next per reference.
func (la *layerAcc) perRef(layer string) float64 {
	if layer == "workload" {
		return 1
	}
	return frac(la.calls[layer], la.refs)
}

// nsPerRef is the layer's ledger term: calls per reference × ns per call.
func (la *layerAcc) nsPerRef(layer string) float64 { return la.perRef(layer) * la.perCall(layer) }

func (la *layerAcc) perCall(layer string) float64 {
	if la.calls[layer] == 0 {
		return 0
	}
	return la.ns[layer] / la.calls[layer]
}

func frac(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// counters are the layer counters a Result does not carry, read from a
// live system.
type counters struct {
	l1Hit, l1Acc, dram, fired uint64
}

func readCounters(s *core.System, cores int) counters {
	c := counters{fired: s.Engine().Fired()}
	for i := 0; i < s.Nodes(); i++ {
		n := s.Node(i)
		c.dram += n.DRAM().Accesses()
		for k := 0; k < cores; k++ {
			l1 := n.Hierarchy().L1Cache(k)
			c.l1Hit += l1.Hits()
			c.l1Acc += l1.Hits() + l1.Misses()
		}
	}
	return c
}

// ref is one memory reference of the recorded stream, with the node page
// it maps to and the simulated time its core drew it at.
type ref struct {
	node, core int
	op         workload.Op
	np         addr.NPPage
	now        sim.Time
}

// access is one reference arriving at the cache hierarchy or below. at
// marks node page-table reads, which the FAM counts as translation traffic.
type access struct {
	node, core int
	a          addr.NPAddr
	write, at  bool
	now        sim.Time
}

// famRef is one FAM-zone memory access, with what the derivation learned
// of its translation. premap marks the first FAM access to a page the node
// OS mapped during the measured phase: the broker backs it before the STU
// sees it.
type famRef struct {
	access
	hit, premap bool
	fp          addr.FPage
}

// drawn is one op a core drew: stream g's k-th op, noticed by the probe at
// simulated time at.
type drawn struct {
	g, k int
	at   sim.Time
}

// probe follows a run's reference streams in simulated time. Every cycle
// it notes the ops each stream drew since its last look, so the replay
// interleaves the cores' references as the run did, to the cycle (ops
// drawn within one cycle are ordered by stream). It stops once every
// stream has drawn until[g] ops, so it never outlives the phase it
// follows; an extra event changes no other event's order, and the replay
// checks that the probed run's Result is unchanged.
type probe struct {
	rec    *trace.Recorder
	eng    *sim.Engine
	dt     sim.Time
	seen   []uint64
	until  []uint64
	order  []drawn
	lookFn func(sim.Time)
}

func newProbe(rec *trace.Recorder, dt sim.Time) *probe {
	p := &probe{rec: rec, dt: dt, seen: make([]uint64, rec.Streams())}
	p.lookFn = p.look
	return p
}

// follow watches eng until every stream has drawn until[g] ops.
func (p *probe) follow(eng *sim.Engine, until []uint64) {
	p.eng, p.until = eng, until
	p.eng.After(p.dt, p.lookFn)
}

func (p *probe) look(now sim.Time) {
	done := true
	for g := range p.seen {
		for n := p.rec.Ops(g); p.seen[g] < n; p.seen[g]++ {
			p.order = append(p.order, drawn{g: g, k: int(p.seen[g]), at: now})
		}
		done = done && p.seen[g] >= p.until[g]
	}
	if !done {
		p.eng.After(p.dt, p.lookFn)
	}
}

// streamCheck compares the length of one derived layer stream with the
// run's own counter for it over the measured phase.
type streamCheck struct {
	name             string
	derived, counted uint64
	worst            uint64 // largest gap of one run, in the workload totals
}

// A derived stream length may stray from the run's counter by
// streamSlack accesses plus streamTolerance of the count. The probe orders
// ops drawn in the same cycle by stream, not by event, so cores of one
// node that touch shared state (the L3, the prefetcher table) within one
// cycle can see it in another order than in the run; that moves a handful
// of accesses. Leaving out a call on node.Access's path moves far more.
const (
	streamSlack     = 8
	streamTolerance = 0.001
)

// replayConfig records cfg's reference stream, then replays the measured
// phase through each layer's public entry point on systems restored to the
// run's own warmup snapshot, timing every layer separately.
func replayConfig(ctx context.Context, cfg core.Config, la *layerAcc) error {
	pool := core.NewSystemPool()
	build := func(opts ...core.RunOption) (*core.System, error) {
		t0 := time.Now()
		s, err := core.NewSystem(cfg, append(opts, core.WithPool(pool))...)
		la.buildMS = append(la.buildMS, msSince(t0))
		return s, err
	}
	streams := cfg.Nodes * cfg.CoresPerNode

	// The untraced reference: host time per reference end to end.
	want, err := core.Run(ctx, cfg, core.WithPool(pool))
	if err != nil {
		return err
	}
	best := time.Duration(1 << 62)
	for i := 0; i < 2; i++ {
		t0 := time.Now()
		if _, err := core.Run(ctx, cfg, core.WithPool(pool)); err != nil {
			return err
		}
		best = min(best, time.Since(t0))
	}

	// Recording run: the reference stream, each stream's length at the
	// warmup/measure boundary and at the end, and the counters at both.
	rec := newRecorder(cfg)
	warmOps := make([]uint64, streams)
	var wc counters
	s, err := build(core.WithTraceRecorder(rec), core.WithWarmupHook(func(s *core.System) {
		for i := range warmOps {
			warmOps[i] = rec.Ops(i)
		}
		wc = readCounters(s, cfg.CoresPerNode)
	}))
	if err != nil {
		return err
	}
	res, err := s.Run(ctx)
	if err != nil {
		return err
	}
	ec := readCounters(s, cfg.CoresPerNode)
	s.Recycle(pool)
	la.check(sameResult(res, want), cfg.Benchmark+": recording run changed the Result")
	totalOps := make([]uint64, streams)
	for g := range totalOps {
		totalOps[g] = rec.Ops(g)
	}

	// Probed run: the order and time the cores drew their ops in.
	pr := newProbe(newRecorder(cfg), cfg.CycleTime)
	s, err = build(core.WithTraceRecorder(pr.rec), core.WithWarmupHook(func(s *core.System) {
		pr.follow(s.Engine(), totalOps)
	}))
	if err != nil {
		return err
	}
	if cfg.WarmupInstructions > 0 {
		pr.follow(s.Engine(), warmOps)
	}
	res2, err := s.Run(ctx)
	if err != nil {
		return err
	}
	s.Recycle(pool)
	la.check(sameResult(res2, want), cfg.Benchmark+": probed run changed the Result")

	// Snapshot run: the warmup boundary to restore from, and the finished
	// system whose page tables map every reference.
	var snap *core.Snapshot
	end, err := build(core.WithWarmupHook(func(s *core.System) {
		start := time.Now()
		snap = s.Snapshot()
		la.snapMS = append(la.snapMS, msSince(start))
	}))
	if err != nil {
		return err
	}
	res3, err := end.Run(ctx)
	if err != nil {
		return err
	}
	la.check(sameResult(res3, want), cfg.Benchmark+": snapshot run changed the Result")
	f := &factory{cfg: cfg, pool: pool, snap: snap, la: la}

	tr, err := trace.Decode(rec.Encode())
	if err != nil {
		return err
	}
	all := make([][]workload.Op, streams)
	for g := range all {
		src := tr.Source(g)
		all[g] = make([]workload.Op, tr.Ops(g))
		for i := range all[g] {
			all[g][i] = src.Next()
		}
	}

	// The workload layer: regenerate every stream from its source and
	// compare it with what the run consumed.
	prof, err := workload.Get(cfg.Benchmark)
	if err != nil {
		return err
	}
	prof.Pattern, prof.PatternDegree = cfg.Pattern, cfg.PatternDegree
	for g := range all {
		src, err := workload.NewSource(prof, cfg.Seed+int64(g/cfg.CoresPerNode)*100+int64(g%cfg.CoresPerNode))
		if err != nil {
			return err
		}
		got := make([]workload.Op, len(all[g]))
		la.time("workload", len(got), func() {
			for i := range got {
				got[i] = src.Next()
			}
		})
		same := true
		for i := range got {
			same = same && got[i] == all[g][i]
		}
		la.check(same, fmt.Sprintf("%s: regenerated stream %d differs from the recorded one", cfg.Benchmark, g))
	}

	// Every reference in the order the run drew it, split at the warmup
	// boundary. The warmup references only train the prefetcher model.
	var warm, refs []ref
	unmapped := 0
	for _, d := range pr.order {
		if d.k >= len(all[d.g]) {
			unmapped++
			continue
		}
		op := all[d.g][d.k]
		ni := d.g / cfg.CoresPerNode
		np, ok := end.Node(ni).PageTable().Lookup(uint64(op.Addr.Page()))
		if !ok {
			unmapped++
			continue
		}
		r := ref{node: ni, core: d.g % cfg.CoresPerNode, op: op, np: addr.NPPage(np), now: d.at}
		if uint64(d.k) < warmOps[d.g] {
			warm = append(warm, r)
		} else {
			refs = append(refs, r)
		}
	}
	end.Recycle(pool)
	var drawnOps uint64
	for g := range totalOps {
		drawnOps += totalOps[g]
	}
	la.check(unmapped == 0 && uint64(len(pr.order)) == drawnOps,
		fmt.Sprintf("%s: probe saw %d of %d ops, %d unmapped", cfg.Benchmark, len(pr.order), drawnOps, unmapped))
	if len(refs) == 0 {
		return fmt.Errorf("%s: no measured references recorded", cfg.Benchmark)
	}

	walks, accs, mems, fams, counts, err := derive(f, warm, refs)
	if err != nil {
		return err
	}
	var walkRuns, faults, issued, dramData uint64
	for _, ns := range res.NodeStats {
		walkRuns += ns.NodePTWalks
		faults += ns.OSFaults
		issued += ns.Prefetch.Issued
		dramData += ns.DRAMData
	}
	for _, c := range []streamCheck{
		{name: "node page walks", derived: uint64(len(walks)), counted: walkRuns},
		{name: "OS faults", derived: counts.faults, counted: faults},
		{name: "prefetches issued", derived: counts.prefetches, counted: issued},
		{name: "cache accesses", derived: uint64(len(accs)), counted: ec.l1Acc - wc.l1Acc},
		{name: "DRAM data accesses", derived: counts.dramData, counted: dramData},
		{name: "FAM data accesses", derived: counts.famData, counted: res.FAMData},
		{name: "FAM translation accesses", derived: counts.famAT, counted: res.FAMAT},
	} {
		la.checkStream(c)
	}
	if err := timeLayers(f, refs, walks, accs, mems, fams); err != nil {
		return err
	}

	la.refs += float64(len(refs))
	la.e2eNS += float64(best.Nanoseconds())
	la.e2eRefs += float64(drawnOps)
	la.addResult(cfg, res, wc, ec)
	return nil
}

// checkStream records one derived stream length against the run's counter.
func (la *layerAcc) checkStream(c streamCheck) {
	gap := max(c.derived, c.counted) - min(c.derived, c.counted)
	la.check(float64(gap) <= streamSlack+streamTolerance*float64(c.counted),
		fmt.Sprintf("%s: derived %d, run %d", c.name, c.derived, c.counted))
	i := 0
	for i < len(la.streams) && la.streams[i].name != c.name {
		i++
	}
	if i == len(la.streams) {
		la.streams = append(la.streams, streamCheck{name: c.name})
	}
	la.streams[i].derived += c.derived
	la.streams[i].counted += c.counted
	la.streams[i].worst = max(la.streams[i].worst, gap)
}

// derivedCounts are the derivation's tallies that have no stream of their
// own to measure the length of.
type derivedCounts struct {
	faults, prefetches, dramData, famData, famAT uint64
}

// walk is one node page-table walk as node.Access makes it on a TLB miss:
// from the PTW cache's best start level and, if the walk faults, through
// the OS's first-touch mapping of vp to np and a walk resumed at the
// faulting level. visit sees every entry address read, in order.
func walk(n *node.Node, m *tlb.MMU, vp, np uint64, buf []pagetable.WalkStep, visit func(entry uint64)) ([]pagetable.WalkStep, bool, error) {
	pt := n.PageTable()
	steps, _, ok := pt.WalkAppend(vp, m.PTW.BestStartLevel(vp), buf[:0])
	for _, st := range steps {
		visit(st.EntryAddr)
	}
	fault := !ok
	if fault {
		if err := pt.Map(vp, np); err != nil {
			return steps, true, err
		}
		head := len(steps) - 1
		if steps, _, ok = pt.WalkAppend(vp, steps[head].Level, steps[:head]); !ok {
			return steps, true, fmt.Errorf("walk of vpage %#x faults after mapping it", vp)
		}
		for _, st := range steps[head:] {
			visit(st.EntryAddr)
		}
	}
	m.PTW.FillFromWalk(vp, steps)
	return steps, fault, nil
}

// derive runs the measured references through the translation, cache and
// FAM-translation layers once, in the order node.Access calls them, and
// returns each layer's input stream: TLB misses to walk, accesses reaching
// the caches (page-table reads, demands and the stream prefetcher's
// candidates), accesses reaching memory and FAM accesses.
func derive(f *factory, warm, refs []ref) (walks []ref, accs, mems []access, fams []famRef, c derivedCounts, err error) {
	cfg := f.cfg
	s, err := f.fresh()
	if err != nil {
		return nil, nil, nil, nil, c, err
	}
	defer s.Recycle(f.pool)
	pf := make([]*pfModel, s.Nodes())
	for i := range pf {
		if modelPrefetcher {
			pf[i] = newPFModel(cfg)
		}
	}
	for _, r := range warm {
		pf[r.node].observe(r.op.PC, uint64(addr.NPFromVP(r.np, r.op.Addr.Offset()))>>addr.BlockShift)
	}
	faulted := map[addr.NPPage]bool{}
	var buf []pagetable.WalkStep
	for _, r := range refs {
		n := s.Node(r.node)
		m := n.MMU(r.core)
		vp := uint64(r.op.Addr.Page())
		if _, lvl := m.Lookup(vp); lvl == tlb.MissBoth {
			walks = append(walks, r)
			var fault bool
			buf, fault, err = walk(n, m, vp, uint64(r.np), buf, func(e uint64) {
				accs = append(accs, access{node: r.node, core: r.core, a: addr.NPAddr(e), at: true, now: r.now})
			})
			if err != nil {
				return nil, nil, nil, nil, c, err
			}
			if fault {
				c.faults++
				if cfg.Layout.InFAMZone(r.np.Addr()) {
					if _, err := s.BrokerFor(n.ID()).MapForNode(n.ID(), r.np); err != nil {
						return nil, nil, nil, nil, c, err
					}
					faulted[r.np] = true
				}
			}
			m.Insert(vp, uint64(r.np))
		}
		npa := addr.NPFromVP(r.np, r.op.Addr.Offset())
		accs = append(accs, access{node: r.node, core: r.core, a: npa, write: r.op.Write, now: r.now})
		for _, cand := range pf[r.node].candidates(r.op.PC, npa) {
			c.prefetches++
			accs = append(accs, access{node: r.node, core: r.core, a: cand, now: r.now})
		}
	}
	for _, a := range accs {
		lvl, wbs := s.Node(a.node).Hierarchy().Access(a.core, uint64(a.a.Block()), a.write)
		for _, wb := range wbs {
			mems = append(mems, access{node: a.node, a: addr.NPAddr(wb), write: true, now: a.now})
		}
		if lvl == cache.Memory {
			mems = append(mems, a)
		}
	}
	for _, a := range mems {
		switch {
		case cfg.Layout.InLocalZone(a.a):
			c.dramData++
		case a.at:
			c.famAT++
			fams = append(fams, famRef{access: a})
		default:
			c.famData++
			fams = append(fams, famRef{access: a})
		}
	}
	stuAT := func() (n uint64) {
		for i := 0; i < s.Nodes(); i++ {
			n += s.Node(i).Stats().FAMAT
		}
		return n
	}
	before := stuAT()
	for i := range fams {
		fr := &fams[i]
		n := s.Node(fr.node)
		np, want := fr.a.Page(), perm(fr.write)
		if faulted[np] {
			fr.premap = true
			delete(faulted, np)
		}
		switch {
		case cfg.Scheme == core.IFAM:
			_, fr.fp, _, err = n.STU().TranslateAndVerify(fr.now, np, want)
		case cfg.Scheme.UsesDeACT():
			var t sim.Time
			t, fr.fp, fr.hit = n.Translator().Lookup(fr.now, np)
			if fr.hit {
				n.STU().VerifyMapped(t, fr.fp, want)
			} else {
				t, fr.fp, _, err = n.STU().HandleUnmapped(t, np, want)
				n.Translator().Update(t, np, fr.fp)
			}
		}
		if err != nil {
			return nil, nil, nil, nil, c, err
		}
	}
	c.famAT += stuAT() - before
	return walks, accs, mems, fams, c, nil
}

// modelPrefetcher turns the prefetcher model on; the benchmark's tests
// turn it off to show that the stream checks catch a missing layer call.
var modelPrefetcher = true

// pfModel mirrors node's PC-keyed stream prefetcher (internal/node,
// prefetch.go), which has no public entry point: a PC-indexed table of
// last block, stride and confirmation count, one per node. A confirmed
// stream issues up to degree candidates along its stride, stopping at the
// node-physical page boundary. The replay checks the candidates it issues
// against the run's Prefetch.Issued counter, so the model cannot drift
// from the node's unnoticed.
type pfModel struct {
	tbl       []pfEntry
	mask      uint64
	degree    int
	threshold int32
	buf       []addr.NPAddr
}

type pfEntry struct {
	pc, last uint64
	delta    int64
	conf     int32
}

// newPFModel returns the prefetcher model cfg configures, or nil when
// the prefetcher is off.
func newPFModel(cfg core.Config) *pfModel {
	if cfg.PrefetchStreams == 0 {
		return nil
	}
	n := 1
	for n < cfg.PrefetchStreams {
		n <<= 1
	}
	p := &pfModel{tbl: make([]pfEntry, n), mask: uint64(n - 1), degree: cfg.PrefetchDegree, threshold: int32(cfg.PrefetchThreshold)}
	if p.degree == 0 {
		p.degree = 2
	}
	if p.threshold == 0 {
		p.threshold = 2
	}
	return p
}

// observe trains on one demand access and returns the confirmed stride in
// blocks, or 0.
func (p *pfModel) observe(pc, block uint64) int64 {
	if p == nil || pc == 0 {
		return 0
	}
	e := &p.tbl[(pc^pc>>9)&p.mask]
	if e.pc != pc {
		*e = pfEntry{pc: pc, last: block}
		return 0
	}
	d := int64(block - e.last)
	e.last = block
	if d == 0 {
		return 0
	}
	if d == e.delta {
		if e.conf < p.threshold {
			e.conf++
		}
	} else {
		e.delta, e.conf = d, 1
	}
	if e.conf >= p.threshold {
		return d
	}
	return 0
}

// candidates trains on a demand access to npa and returns the prefetches
// it issues; the slice is reused by the next call.
func (p *pfModel) candidates(pc uint64, npa addr.NPAddr) []addr.NPAddr {
	block := uint64(npa) >> addr.BlockShift
	d := p.observe(pc, block)
	if d == 0 {
		return nil
	}
	p.buf = p.buf[:0]
	for i := 1; i <= p.degree; i++ {
		cand := addr.NPAddr((block + uint64(d*int64(i))) << addr.BlockShift)
		if cand.Page() != npa.Page() {
			break
		}
		p.buf = append(p.buf, cand)
	}
	return p.buf
}

// timeLayers replays each layer's stream through its public entry point,
// each on its own system restored to the warmup snapshot, so the TLB,
// page-table, cache, STU, ACM and translator passes see the state sequence
// the derivation produced. The memdev and fabric passes see the derived
// data traffic only: the STU's own FAM reads are timed inside its calls.
func timeLayers(f *factory, refs, walks []ref, accs, mems []access, fams []famRef) error {
	cfg, la := f.cfg, f.la
	type pass struct {
		layer string
		calls int
		run   func(s *core.System)
	}
	passes := []pass{
		{"tlb", len(refs), func(s *core.System) {
			for _, r := range refs {
				m := s.Node(r.node).MMU(r.core)
				if _, lvl := m.Lookup(uint64(r.op.Addr.Page())); lvl == tlb.MissBoth {
					m.Insert(uint64(r.op.Addr.Page()), uint64(r.np))
				}
			}
		}},
		{"pagetable", len(walks), func(s *core.System) {
			var buf []pagetable.WalkStep
			for _, r := range walks {
				n := s.Node(r.node)
				buf, _, _ = walk(n, n.MMU(r.core), uint64(r.op.Addr.Page()), uint64(r.np), buf, func(uint64) {})
			}
		}},
		{"cache", len(accs), func(s *core.System) {
			for _, a := range accs {
				s.Node(a.node).Hierarchy().Access(a.core, uint64(a.a.Block()), a.write)
			}
		}},
		{"memdev", len(mems), func(s *core.System) {
			fam := memdev.New(cfg.FAMCfg)
			fam.Bind(s.Engine())
			for i, a := range mems {
				if i%256 == 0 {
					advance(s.Engine(), a.now)
				}
				if cfg.Layout.InLocalZone(a.a) {
					s.Node(a.node).DRAM().Access(a.now, uint64(a.a), a.write)
				} else {
					fam.Access(a.now, uint64(a.a), a.write)
				}
			}
		}},
		{"fabric", 2 * len(fams), func(s *core.System) {
			fab := fabric.New(fabric.Config{Latency: cfg.FabricLatency, PacketTime: cfg.FabricPacketTime})
			fab.Bind(s.Engine())
			for i, fr := range fams {
				if i%256 == 0 {
					advance(s.Engine(), fr.now)
				}
				arrive := fab.Traverse(fr.now, fabric.ToFAM)
				fab.Traverse(arrive+cfg.FAMCfg.ReadLatency, fabric.ToNode)
			}
		}},
		{"node", len(refs), func(s *core.System) {
			failed := 0
			for i, r := range refs {
				if i%256 == 0 {
					advance(s.Engine(), r.now)
				}
				if _, err := s.Node(r.node).Access(r.now, r.core, r.op); err != nil {
					failed++
				}
			}
			la.check(failed == 0, fmt.Sprintf("%d node.Access replays failed", failed))
		}},
	}
	if cfg.Scheme != core.EFAM {
		passes = append(passes,
			pass{"stu", len(fams), func(s *core.System) {
				for i, fr := range fams {
					if i%256 == 0 {
						advance(s.Engine(), fr.now)
					}
					n, np, want := s.Node(fr.node), fr.a.Page(), perm(fr.write)
					if fr.premap {
						s.BrokerFor(n.ID()).MapForNode(n.ID(), np)
					}
					u := n.STU()
					switch {
					case cfg.Scheme == core.IFAM:
						u.TranslateAndVerify(fr.now, np, want)
					case fr.hit:
						u.VerifyMapped(fr.now, fr.fp, want)
					default:
						u.HandleUnmapped(fr.now, np, want)
					}
				}
			}},
			pass{"acm", len(fams), func(s *core.System) {
				for _, fr := range fams {
					id := s.Node(fr.node).ID()
					s.BrokerFor(id).Meta().Check(fr.fp, id, perm(fr.write))
				}
			}})
	}
	if cfg.Scheme.UsesDeACT() {
		passes = append(passes, pass{"translator", len(fams), func(s *core.System) {
			for i, fr := range fams {
				if i%256 == 0 {
					advance(s.Engine(), fr.now)
				}
				tr := s.Node(fr.node).Translator()
				if t, _, hit := tr.Lookup(fr.now, fr.a.Page()); !hit {
					tr.Update(t, fr.a.Page(), fr.fp)
				}
			}
		}})
	}
	for _, p := range passes {
		s, err := f.fresh()
		if err != nil {
			return err
		}
		la.time(p.layer, p.calls, func() { p.run(s) })
		s.Recycle(f.pool)
	}
	return nil
}

// factory builds pooled systems restored to one run's warmup snapshot.
type factory struct {
	cfg  core.Config
	pool *core.SystemPool
	snap *core.Snapshot
	la   *layerAcc
}

// fresh builds a system and restores the snapshot into it; the time both
// take is core.fork_ms.
func (f *factory) fresh() (*core.System, error) {
	t0 := time.Now()
	s, err := core.NewSystem(f.cfg, core.WithPool(f.pool))
	if err != nil {
		return nil, err
	}
	err = s.Restore(f.snap)
	f.la.forkMS = append(f.la.forkMS, msSince(t0))
	return s, err
}

// advance moves the engine clock to t, so the calendars bound to it retire
// reservations that lie entirely in the past, as they do in a running
// simulation.
func advance(e *sim.Engine, t sim.Time) {
	if t > e.Now() {
		e.Schedule(t, func(sim.Time) {})
		e.Run(0)
	}
}

func perm(write bool) acm.Perm {
	if write {
		return acm.PermRW
	}
	return acm.PermR
}

// addResult folds one run's counters into the workload totals.
func (la *layerAcc) addResult(cfg core.Config, r core.Result, wc, ec counters) {
	la.results = append(la.results, r)
	la.memOps += r.MemOps
	la.famat += r.FAMAT
	la.famData += r.FAMData
	la.packets += r.FabricPackets
	la.famAcc += r.FAMReads + r.FAMWrites
	la.fired += ec.fired - wc.fired
	la.l1Hit += ec.l1Hit - wc.l1Hit
	la.l1Acc += ec.l1Acc - wc.l1Acc
	la.dramAcc += ec.dram - wc.dram
	for _, ns := range r.NodeStats {
		la.walks += ns.NodePTWalks
	}
	for _, st := range r.STUStats {
		la.stuCalls += st.ACMHits + st.ACMMisses + st.TrustedReads
		la.stuSteps += st.PTWSteps
		la.stuXHit += st.TranslationHits
		la.stuXMiss += st.TranslationMisses
		la.acmHit += st.ACMHits
		la.acmMiss += st.ACMMisses
	}
	for _, ts := range r.TranslatorStats {
		la.trHit += ts.Hits
		la.trMiss += ts.Misses
		la.slotStallPS += float64(ts.SlotStallsPS)
	}
	in := float64(r.Instructions)
	la.instr += in
	la.ipcW += r.IPC * in
	la.mpkiW += r.MPKI * in
	d := float64(r.Duration)
	la.famBusyPS += float64(r.FAMReads)*float64(cfg.FAMCfg.ReadLatency) + float64(r.FAMWrites)*float64(cfg.FAMCfg.WriteLatency)
	la.famCapPS += d * float64(cfg.FAMCfg.Banks)
	la.fabBusyPS += float64(r.FabricPackets) * float64(cfg.FabricPacketTime)
	la.fabCapPS += 2 * d // one link per direction
}

func sameResult(a, b core.Result) bool {
	da, errA := digest(a)
	db, errB := digest(b)
	return errA == nil && errB == nil && da == db
}

func newRecorder(cfg core.Config) *trace.Recorder {
	return trace.NewRecorder(cfg.Benchmark, cfg.Nodes*cfg.CoresPerNode)
}

// storeOwner is an instance whose results already live in a result store.
type storeOwner interface{ storeDirectory() string }

// tracedRun runs the traced pass: an untraced and a traced stretch of
// equal rounds (their ratio is the tracing overhead), the per-reference
// layer replays of the workload's configs, and probes of the outer
// layers. End-to-end metrics are never taken from it.
func tracedRun(ctx context.Context, e *env, w *workloadDef) (outcome, error) {
	inst, err := w.open(ctx, e)
	if err != nil {
		return outcome{}, err
	}
	defer inst.close()

	var o outcome
	var plain, traced []float64
	var acc roundResult
	for len(plain) < max(2, int(e.seconds/3/w.roundSeconds+0.5)) {
		t0 := time.Now()
		rr, err := inst.round(ctx, nil)
		if err != nil {
			return o, err
		}
		plain = append(plain, time.Since(t0).Seconds())
		o.attempted, o.failed = o.attempted+rr.attempted, o.failed+rr.failed
	}
	tr := newTracer()
	for len(traced) < len(plain) {
		t0 := time.Now()
		rr, err := inst.round(ctx, tr)
		if err != nil {
			return o, err
		}
		traced = append(traced, time.Since(t0).Seconds())
		acc.merge(rr)
	}
	o.attempted, o.failed = o.attempted+acc.attempted, o.failed+acc.failed

	la := newLayerAcc()
	cfgs := inst.simConfigs()
	for _, cfg := range cfgs {
		if err := replayConfig(ctx, cfg, la); err != nil {
			return o, fmt.Errorf("replay %s/%v: %w", cfg.Benchmark, cfg.Scheme, err)
		}
	}
	o.attempted += la.checks
	o.failed += la.mismatch

	waits, err := runnerProbe(ctx, cfgs, tr)
	if err != nil {
		return o, err
	}
	fps := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		fps[i] = cfg.Fingerprint()
	}
	var dir string
	if so, ok := inst.(storeOwner); ok {
		dir = so.storeDirectory()
	} else {
		if dir, err = fillStore(e, cfgs, la.results); err != nil {
			return o, err
		}
		defer os.RemoveAll(dir)
	}
	lookups, err := lookupProbe(dir, fps, tr)
	if err != nil {
		return o, err
	}
	warm := acc.warmMS
	if len(warm) == 0 {
		if warm, err = serveProbe(ctx, e, dir, cfgs, tr); err != nil {
			return o, err
		}
	}
	spans := filepath.Join(e.work, fmt.Sprintf("spans-%s-%d.json", w.name, e.seed))
	if err := tr.write(spans); err != nil {
		return o, err
	}

	perOp := func(n float64) float64 { return frac(n, float64(la.memOps)) }
	o.add("tlb.lookup_ns", la.perCall("tlb"), "ns", true, "MMU.Lookup, Insert on a miss")
	o.add("tlb.walks_per_ref", perOp(float64(la.walks)), "1/ref", true, "")
	o.add("pagetable.walk_ns", la.perCall("pagetable"), "ns", true, "Table.WalkAppend with the PTW cache")
	o.add("stu.call_ns", la.perCall("stu"), "ns", true, "TranslateAndVerify / VerifyMapped / HandleUnmapped, inclusive")
	o.add("stu.calls_per_ref", perOp(float64(la.stuCalls)), "1/ref", true, "")
	o.add("stu.walk_steps_per_ref", perOp(float64(la.stuSteps)), "1/ref", true, "")
	o.add("stu.xlate_hit_frac", frac(float64(la.stuXHit), float64(la.stuXHit+la.stuXMiss)), "frac", true, "")
	o.add("stu.acm_hit_frac", frac(float64(la.acmHit), float64(la.acmHit+la.acmMiss)), "frac", true, "")
	o.add("acm.check_ns", la.perCall("acm"), "ns", true, "Store.Check; inside stu.call_ns")
	o.add("translator.lookup_ns", la.perCall("translator"), "ns", true, "Lookup, Update on a miss")
	o.add("translator.calls_per_ref", perOp(float64(la.trHit+la.trMiss)), "1/ref", true, "")
	o.add("translator.hit_frac", frac(float64(la.trHit), float64(la.trHit+la.trMiss)), "frac", true, "")
	o.add("translator.slot_stall_ps_per_ref", perOp(la.slotStallPS), "ps/ref", true, "simulated")
	o.add("cache.access_ns", la.perCall("cache"), "ns", true, "Hierarchy.Access")
	o.add("cache.calls_per_ref", perOp(float64(la.l1Acc)), "1/ref", true, "")
	o.add("cache.l1_hit_frac", frac(float64(la.l1Hit), float64(la.l1Acc)), "frac", true, "")
	o.add("cache.l3_mpki", frac(la.mpkiW, la.instr), "1/kinstr", true, "")
	o.add("memdev.access_ns", la.perCall("memdev"), "ns", true, "Device.Access")
	o.add("memdev.calls_per_ref", perOp(float64(la.famAcc+la.dramAcc)), "1/ref", true, "")
	o.add("memdev.fam_busy_frac", frac(la.famBusyPS, la.famCapPS), "frac", true, "simulated")
	o.add("fabric.traverse_ns", la.perCall("fabric"), "ns", true, "Fabric.Traverse")
	o.add("fabric.packets_per_ref", perOp(float64(la.packets)), "1/ref", true, "")
	o.add("fabric.busy_frac", frac(la.fabBusyPS, la.fabCapPS), "frac", true, "simulated")
	o.add("workload.next_ns", la.perCall("workload"), "ns", true, "Source.Next")
	o.add("node.access_ns", la.perCall("node"), "ns", true, "Node.Access, the chain below the core")
	o.add("node.famat_per_ref", perOp(float64(la.famat)), "1/ref", true, "")
	o.add("node.at_frac", frac(float64(la.famat), float64(la.famat+la.famData)), "frac", true, "")
	o.add("sim.events_per_ref", perOp(float64(la.fired)), "1/ref", true, "Engine.Fired")
	o.add("cpu.ipc", frac(la.ipcW, la.instr), "instr/cycle", true, "simulated")
	o.add("core.build_ms", median(la.buildMS), "ms", true, fmt.Sprintf("pooled NewSystem, %d samples", len(la.buildMS)))
	o.add("core.snapshot_ms", median(la.snapMS), "ms", true, fmt.Sprintf("%d samples", len(la.snapMS)))
	o.add("core.fork_ms", median(la.forkMS), "ms", true, fmt.Sprintf("NewSystem+Restore, %d samples", len(la.forkMS)))
	rounds := float64(len(traced))
	o.add("experiments.distinct_runs", float64(acc.distinct)/rounds, "count", true, "results simulated per round")
	o.add("experiments.cached_runs", float64(acc.cached)/rounds, "count", true, "results served from a store per round")
	o.add("experiments.wait_ms_p50", median(waits), "ms", true, fmt.Sprintf("Runner Submit→Wait, %d samples", len(waits)))
	o.add("resultstore.lookup_us_p50", median(lookups), "us", true, fmt.Sprintf("Store.Lookup, %d samples", len(lookups)))
	o.add("resultstore.hit_frac", frac(float64(acc.cached), float64(acc.cached+acc.distinct)), "frac", true, "")
	o.add("deact-serve.http_overhead_us_p50", median(warm)*1000-median(lookups), "us", true,
		fmt.Sprintf("warm POST /run p50 minus lookup p50, %d samples", len(warm)))

	predicted := 0.0
	for _, l := range ledgerLayers {
		predicted += la.nsPerRef(l)
	}
	e2e := frac(la.e2eNS, la.e2eRefs)
	measured := la.nsPerRef("node") + la.nsPerRef("workload")
	o.add("ledger.measured_ns_per_ref", measured, "ns/ref", true, "node.access_ns + workload.next_ns")
	o.add("ledger.predicted_ns_per_ref", predicted, "ns/ref", true, "sum of calls/ref × ns over the layers")
	o.add("ledger.e2e_ns_per_ref", e2e, "ns/ref", true, "untraced core.Run host time per reference")
	o.add("ledger.residual_frac", 1-frac(predicted, e2e), "frac", true, "core step, engine dispatch and what the replay misses")
	o.add("trace.overhead_frac", median(traced)/median(plain)-1, "frac", true,
		fmt.Sprintf("traced over untraced wall, %d rounds each", len(plain)))
	printLedger(e, la, predicted, measured, e2e)
	fmt.Fprintf(e.out, "# spans: %s\n", spans)
	for name, v := range tr.selfTimes() {
		fmt.Fprintf(e.out, "# span %-28s n=%-6.0f total=%.3fms self=%.3fms\n", name, v[0], v[1]/1e6, v[2]/1e6)
	}
	return o, nil
}

// printLedger writes the per-reference ledger table: per layer, calls per
// reference, ns per call and their product.
func printLedger(e *env, la *layerAcc, predicted, measured, e2e float64) {
	fmt.Fprintf(e.out, "# ledger over %.0f measured references (%d runs)\n", la.refs, len(la.results))
	fmt.Fprintf(e.out, "# %-12s %12s %12s %12s\n", "layer", "calls/ref", "ns/call", "ns/ref")
	for _, l := range append(append([]string{}, ledgerLayers...), "acm", "node") {
		fmt.Fprintf(e.out, "# %-12s %12.4f %12.2f %12.2f\n", l, la.perRef(l), la.perCall(l), la.nsPerRef(l))
	}
	fmt.Fprintf(e.out, "# predicted %.2f ns/ref, measured node+workload %.2f ns/ref, end to end %.2f ns/ref, residual %.3f\n",
		predicted, measured, e2e, 1-frac(predicted, e2e))
	fmt.Fprintf(e.out, "# derived streams against the run's counters (per run at most %d + %g of the count apart)\n",
		streamSlack, streamTolerance)
	for _, c := range la.streams {
		fmt.Fprintf(e.out, "# %-26s derived %10d run %10d  largest gap of one run %d\n", c.name, c.derived, c.counted, c.worst)
	}
}

// runnerProbe submits cfgs to a fresh Runner together and times each
// Submit→Wait.
func runnerProbe(ctx context.Context, cfgs []core.Config, tr *tracer) ([]float64, error) {
	r := experiments.New(experiments.Options{Parallelism: 2, ShareWarmup: true})
	defer r.WaitIdle()
	t0 := make([]time.Time, len(cfgs))
	futs := make([]*experiments.Future, len(cfgs))
	for i, cfg := range cfgs {
		t0[i] = time.Now()
		futs[i] = r.Submit(ctx, cfg)
		tr.mark("experiments.Submit", -1)
	}
	var waits []float64
	for i, f := range futs {
		sp := tr.begin("experiments.Wait", -1)
		_, err := f.Wait()
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		waits = append(waits, msSince(t0[i]))
	}
	return waits, nil
}

// fillStore persists the workload's results in a new store directory.
func fillStore(e *env, cfgs []core.Config, results []core.Result) (string, error) {
	dir, err := os.MkdirTemp(e.work, "probe-store-")
	if err != nil {
		return "", err
	}
	st, err := resultstore.Open(dir, 0)
	if err != nil {
		return "", err
	}
	for i, cfg := range cfgs {
		if err := st.Put(cfg, results[i]); err != nil {
			return "", err
		}
	}
	return dir, nil
}

// lookupProbe times Store.Lookup of every stored fingerprint, several
// times over.
func lookupProbe(dir string, fps []string, tr *tracer) ([]float64, error) {
	st, err := resultstore.Open(dir, 0)
	if err != nil {
		return nil, err
	}
	var us []float64
	for rep := 0; rep < 10; rep++ {
		for _, fp := range fps {
			sp := tr.begin("resultstore.Lookup", -1)
			t0 := time.Now()
			_, ok := st.Lookup(fp)
			d := msSince(t0) * 1000
			tr.end(sp)
			if ok { // serve-mix may not have requested every hot config yet
				us = append(us, d)
			}
		}
	}
	if len(us) == 0 {
		return nil, fmt.Errorf("store %s answered no lookup", dir)
	}
	return us, nil
}

// serveProbe starts deact-serve on a store that already holds cfgs'
// results and times warm POST /run requests for them.
func serveProbe(ctx context.Context, e *env, dir string, cfgs []core.Config, tr *tracer) ([]float64, error) {
	p, err := startServer(ctx, e, dir, serveBase(e.scale))
	if err != nil {
		return nil, err
	}
	defer p.stop()
	var ms []float64
	for rep := 0; rep < 20; rep++ {
		for _, cfg := range cfgs {
			body, err := json.Marshal(cfg)
			if err != nil {
				return nil, err
			}
			sp := tr.begin("http.POST /run", -1)
			t0 := time.Now()
			status, resp, err := p.post(ctx, "/run", body)
			ms = append(ms, msSince(t0))
			tr.end(sp)
			var a struct{ Cached bool }
			if err != nil || status != 200 || json.Unmarshal(resp, &a) != nil || !a.Cached {
				return nil, fmt.Errorf("serve probe: status %d, err %v", status, err)
			}
		}
	}
	return ms, nil
}
