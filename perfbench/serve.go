package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"deact/internal/core"
)

// The serve-mix request plan: per client and round, hotPerRound Zipf-hot
// POST /run requests, coldPerRound fresh-seed POST /run requests and one
// POST /sweep of two hot and two round-shared fresh configurations.
//
// These ratios are synthetic and unmeasured: the repository holds no
// record of deact-serve traffic (its only client is the CI smoke, which
// posts one config twice). They give the mix the shape it needs: most
// requests are store hits, a minority simulate, and the two clients'
// sweeps overlap. The cold share decides how much of cpu_s is simulation
// rather than serving; another mix would weigh resultstore, HTTP and the
// simulator differently.
const (
	serveClients = 2
	hotPerRound  = 48
	coldPerRound = 12
	sweepHot     = 2
	sweepShared  = 2
	zipfS        = 1.1
)

var (
	serveBenchmarks = []string{"mcf", "canl", "sssp", "sp", "mg", "lu"}
	serveSchemes    = []string{"i-fam", "deact-n"}
)

// served is one request configuration: its sparse body as sent and the
// full config the server resolves it to.
type served struct {
	body []byte
	cfg  core.Config
	fp   string
}

// fpState is what the clients have seen of one fingerprint so far.
type fpState struct {
	firstSend int64  // sequence number of the first request for it
	answered  int64  // sequence number at which its first answer arrived; 0 if none yet
	result    []byte // the first answer's Result bytes
}

// serverProc is a running deact-serve child process.
type serverProc struct {
	cmd     *exec.Cmd
	exited  chan struct{}
	waitErr error
	stderr  bytes.Buffer
	url     string
	client  *http.Client
}

// serveInstance is deact-serve on a fresh store, and the clients' state.
type serveInstance struct {
	*serverProc
	sc       scale
	seed     int64
	storeDir string
	hot      []served
	zipf     []*rand.Zipf
	rngs     []*rand.Rand
	cold     []int64 // per-client fresh-seed counters
	rounds   int

	mu   sync.Mutex
	seen map[string]*fpState
	seq  atomic.Int64
}

// serveBase is the configuration deact-serve overlays sparse requests on,
// given the scale flags openServe starts it with.
func serveBase(sc scale) core.Config {
	cfg := core.DefaultConfig()
	cfg.CoresPerNode = 1
	cfg.WarmupInstructions, cfg.MeasureInstructions = sc.serveWarmup, sc.serveMeasure
	return cfg
}

func newServed(sc scale, bench, scheme string, seed int64) served {
	body := fmt.Sprintf(`{"Benchmark":%q,"Scheme":%q,"Seed":%d}`, bench, scheme, seed)
	cfg := serveBase(sc)
	cfg.Benchmark, cfg.Seed = bench, seed
	s, err := core.ParseScheme(scheme)
	if err != nil {
		panic(err) // the scheme names above are constants
	}
	cfg.Scheme = s
	return served{body: []byte(body), cfg: cfg, fp: cfg.Fingerprint()}
}

// startServer starts deact-serve on a free local port over the store in
// dir, with base's scale as its defaults, and returns once /healthz answers.
func startServer(ctx context.Context, e *env, dir string, base core.Config) (*serverProc, error) {
	if e.serveBin == "" {
		return nil, errors.New("deact-serve binary not given (-serve-bin)")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	p := &serverProc{url: "http://" + addr, exited: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, DisableCompression: true}}}
	p.cmd = exec.Command(e.serveBin, "-addr", addr, "-store", dir,
		"-warmup", strconv.FormatUint(base.WarmupInstructions, 10),
		"-measure", strconv.FormatUint(base.MeasureInstructions, 10),
		"-cores", strconv.Itoa(base.CoresPerNode), "-parallelism", strconv.Itoa(serveClients))
	p.cmd.Stderr = &p.stderr
	// The server must not outlive the benchmark, even if it crashes.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { p.waitErr = p.cmd.Wait(); close(p.exited) }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-p.exited:
			return nil, fmt.Errorf("deact-serve exited: %v: %s", p.waitErr, p.stderr.String())
		case <-ctx.Done():
			p.stop()
			return nil, ctx.Err()
		default:
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, errors.New("deact-serve did not answer /healthz within 30s")
		}
		if resp, err := p.client.Get(p.url + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		time.Sleep(time.Millisecond)
	}
}

// stop interrupts the server, which drains and exits, and waits for it.
func (p *serverProc) stop() {
	select {
	case <-p.exited:
	default:
		_ = p.cmd.Process.Signal(os.Interrupt)
		select {
		case <-p.exited:
		case <-time.After(10 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.exited
		}
	}
	p.client.CloseIdleConnections()
}

func (p *serverProc) peakRSSMB() float64 {
	return peakRSSMB(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
}

// simCPUSeconds is the server's CPU time over its whole life; it started
// after any moment the caller could have read its own CPU time at.
func (p *serverProc) simCPUSeconds(float64) float64 { return procCPUSeconds(p.cmd.Process.Pid) }

func (p *serverProc) post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// openServe starts deact-serve with a fresh store and draws the hot set.
func openServe(ctx context.Context, e *env) (instance, error) {
	dir, err := os.MkdirTemp(e.work, "serve-store-")
	if err != nil {
		return nil, err
	}
	p, err := startServer(ctx, e, dir, serveBase(e.scale))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	si := &serveInstance{serverProc: p, sc: e.scale, seed: e.seed, storeDir: dir, seen: map[string]*fpState{}}
	for _, b := range serveBenchmarks {
		for _, s := range serveSchemes {
			for k := int64(0); k < 2; k++ {
				si.hot = append(si.hot, newServed(e.scale, b, s, e.seed*4+1+k))
			}
		}
	}
	rng := rand.New(rand.NewSource(e.seed))
	rng.Shuffle(len(si.hot), func(i, j int) { si.hot[i], si.hot[j] = si.hot[j], si.hot[i] })
	for c := 0; c < serveClients; c++ {
		r := rand.New(rand.NewSource(e.seed*serveClients + int64(c)))
		si.rngs = append(si.rngs, r)
		si.zipf = append(si.zipf, rand.NewZipf(r, zipfS, 1, uint64(len(si.hot)-1)))
		si.cold = append(si.cold, 0)
	}
	return si, nil
}

// close stops the server and removes its store.
func (si *serveInstance) close() error {
	si.stop()
	return os.RemoveAll(si.storeDir)
}

func (si *serveInstance) storeDirectory() string { return si.storeDir }

func (si *serveInstance) simConfigs() []core.Config {
	var out []core.Config
	for _, h := range si.hot {
		out = append(out, h.cfg)
	}
	return out
}

// request is one planned client operation: a POST /run of cfgs[0], or a
// POST /sweep of all of cfgs.
type request struct {
	sweep bool
	cfgs  []served
}

// plan draws client c's requests for the current round.
func (si *serveInstance) plan(c int) []request {
	r := si.rngs[c]
	var reqs []request
	for i := 0; i < hotPerRound; i++ {
		reqs = append(reqs, request{cfgs: []served{si.hot[si.zipf[c].Uint64()]}})
	}
	for i := 0; i < coldPerRound; i++ {
		n := si.cold[c]
		si.cold[c]++
		seed := 1<<40 + si.seed<<21 + int64(c)<<20 + n
		reqs = append(reqs, request{cfgs: []served{newServed(si.sc,
			serveBenchmarks[int(n)%len(serveBenchmarks)], serveSchemes[int(n/6)%len(serveSchemes)], seed)}})
	}
	sw := request{sweep: true}
	for i := 0; i < sweepHot; i++ {
		sw.cfgs = append(sw.cfgs, si.hot[si.zipf[c].Uint64()])
	}
	for i := 0; i < sweepShared; i++ {
		seed := 1<<41 + si.seed<<21 + int64(si.rounds*sweepShared+i)
		sw.cfgs = append(sw.cfgs, newServed(si.sc, serveBenchmarks[(si.rounds+i)%len(serveBenchmarks)], "deact-n", seed))
	}
	reqs = append(reqs, sw)
	r.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// round runs both clients' plans concurrently, closed loop: each client
// sends its next request only after the previous answer arrived.
func (si *serveInstance) round(ctx context.Context, tr *tracer) (roundResult, error) {
	plans := make([][]request, serveClients)
	for c := range plans {
		plans[c] = si.plan(c)
	}
	si.rounds++
	results := make([]roundResult, serveClients)
	tracers := make([]*tracer, serveClients)
	var wg sync.WaitGroup
	for c := range plans {
		if tr != nil {
			tracers[c] = newTracer()
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, rq := range plans[c] {
				si.do(ctx, rq, &results[c], tracers[c])
			}
		}(c)
	}
	wg.Wait()
	var rr roundResult
	for c := range results {
		rr.merge(results[c])
		if tr != nil {
			tr.add(tracers[c])
		}
	}
	return rr, nil
}

// do sends one request and checks every answer in it.
func (si *serveInstance) do(ctx context.Context, rq request, rr *roundResult, tr *tracer) {
	path, body := "/run", rq.cfgs[0].body
	if rq.sweep {
		path = "/sweep"
		var b bytes.Buffer
		b.WriteString(`{"Configs":[`)
		for i, s := range rq.cfgs {
			if i > 0 {
				b.WriteByte(',')
			}
			b.Write(s.body)
		}
		b.WriteString(`]}`)
		body = b.Bytes()
	}
	sent := si.register(rq.cfgs)
	sp := -1
	if tr != nil {
		sp = tr.begin("http.POST "+path, -1)
	}
	t0 := time.Now()
	status, resp, err := si.post(ctx, path, body)
	ms := msSince(t0)
	if tr != nil {
		tr.end(sp)
	}
	rr.attempted += len(rq.cfgs)
	if err != nil || status != http.StatusOK {
		rr.failed += len(rq.cfgs)
		logFailure("POST %s: status %d, error %v: %.200s", path, status, err, resp)
		return
	}
	type answer struct {
		Fingerprint string
		Cached      bool
		Result      json.RawMessage
		Error       string
	}
	var answers []answer
	dec := json.NewDecoder(bytes.NewReader(resp))
	for {
		var a answer
		if err := dec.Decode(&a); err == io.EOF {
			break
		} else if err != nil {
			rr.failed += len(rq.cfgs)
			logFailure("POST %s: undecodable answer: %v", path, err)
			return
		}
		answers = append(answers, a)
	}
	if len(answers) != len(rq.cfgs) {
		rr.failed += len(rq.cfgs)
		logFailure("POST %s: %d answers for %d configs", path, len(answers), len(rq.cfgs))
		return
	}
	done := si.seq.Add(1)
	for i, a := range answers {
		s := rq.cfgs[i]
		if a.Error != "" || a.Fingerprint != s.fp || !si.check(s.fp, sent[i], done, a.Cached, a.Result) {
			rr.failed++
			logFailure("POST %s: answer for %.12s: fingerprint %.12s, cached %v, error %q", path, s.fp, a.Fingerprint, a.Cached, a.Error)
			continue
		}
		rr.instr += instructions(s.cfg)
		if a.Cached {
			rr.cached++
		} else {
			rr.distinct++
		}
	}
	switch {
	case rq.sweep:
		rr.sweepMS = append(rr.sweepMS, ms)
	case answers[0].Cached:
		rr.warmMS = append(rr.warmMS, ms)
		rr.opsMS = append(rr.opsMS, ms)
	default:
		rr.coldMS = append(rr.coldMS, ms)
		rr.opsMS = append(rr.opsMS, ms)
	}
}

// register notes that requests for cfgs are being sent now and returns
// each one's send sequence number.
func (si *serveInstance) register(cfgs []served) []int64 {
	seqs := make([]int64, len(cfgs))
	si.mu.Lock()
	defer si.mu.Unlock()
	for i, s := range cfgs {
		seqs[i] = si.seq.Add(1)
		if si.seen[s.fp] == nil {
			si.seen[s.fp] = &fpState{firstSend: seqs[i]}
		}
	}
	return seqs
}

// check applies the serving contract to one answer: a fingerprint's answer
// is uncached unless the store could have it (some request for it was sent
// earlier), cached once an earlier answer for it had arrived before this
// request was sent, and its Result bytes equal the first answer's.
func (si *serveInstance) check(fp string, sent, done int64, cached bool, res []byte) bool {
	si.mu.Lock()
	defer si.mu.Unlock()
	st := si.seen[fp]
	switch {
	case cached && st.firstSend == sent:
		return false
	case !cached && st.answered != 0 && st.answered < sent:
		return false
	}
	if st.answered == 0 {
		st.answered, st.result = done, append([]byte(nil), res...)
		return true
	}
	return bytes.Equal(st.result, res)
}

func (si *serveInstance) report(o *outcome, acc *roundResult, wall float64) {
	rounds := float64(len(acc.opsMS)+len(acc.sweepMS)) / float64(serveClients*(hotPerRound+coldPerRound+1))
	o.add("serve_warm_ms_p50", quantile(acc.warmMS, 0.50), "ms", false, fmt.Sprintf("%d samples", len(acc.warmMS)))
	o.add("serve_warm_ms_p99", quantile(acc.warmMS, 0.99), "ms", false, beyond(len(acc.warmMS), 0.99))
	o.add("serve_cold_ms_p50", quantile(acc.coldMS, 0.50), "ms", false, fmt.Sprintf("%d samples", len(acc.coldMS)))
	o.add("serve_cold_ms_p90", quantile(acc.coldMS, 0.90), "ms", false, beyond(len(acc.coldMS), 0.90))
	o.add("serve_sweep_ms_p50", quantile(acc.sweepMS, 0.50), "ms", false, fmt.Sprintf("%d samples", len(acc.sweepMS)))
	o.add("serve_req_per_s", float64(serveClients*(hotPerRound+coldPerRound+1))/wall, "1/s", false,
		fmt.Sprintf("requests per round over wall_s, %.0f rounds", rounds))
}

// logFailure names a failed serve-mix check on standard error.
func logFailure(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: serve-mix check failed: "+format+"\n", args...)
}
