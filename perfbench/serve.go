package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/corpus"
	"repro/internal/csmith"
	"repro/internal/harness"
	"repro/internal/serve"
)

// Serve workload shape. Both serve workloads run sraad with its
// default flags and send lt,alias,sanitize requests, open loop, from
// at most conns() connections.
//
// capacity is the closed-loop throughput measured on each workload
// when the benchmark was defined (README.md). The steady phase runs at
// a quarter of it and the overload phase at 1.2 times; the rates are
// constants so that a faster or slower program meets the same load.
// At half capacity, queueing amplified the host's own speed swings
// into serve-cold's latency (interquartile spread 0.35-0.40 over ten
// runs); at a quarter the latency follows the program.
var capacity = map[bool]float64{false: 220, true: 430} // keyed by cold

const (
	warmPrograms = 16
	// coldWarmPrograms is the size of serve-cold's warm pass: distinct
	// programs never requested again, so the measured requests miss.
	coldWarmPrograms = 32
	steadyLoad       = 0.25
	overloadLoad     = 1.2
	// Phase shares of --seconds: closed-loop passes, steady, overload.
	// The measured phase runs in rounds, each with one share of all
	// three.
	passShare, steadyShare, overloadShare = 0.1, 0.7, 0.2
	rounds                                = 12
	// serveSetupReps is how many times a serve run sets up; setup_s is
	// the median.
	serveSetupReps = 5
	// latencyLimit is the overload phase's per-request limit: a
	// response later than this after its due time misses, and a client
	// gives up on a request still unsent this long after its due time.
	latencyLimit = 50 * time.Millisecond
	// rssEvery is how often the daemon's resident set is read during
	// the measured phase; peak_rss_mb is the median over the rounds of
	// each round's highest reading. A single highest reading, and VmHWM,
	// which also holds the daemon's start and the set-up's warm pass,
	// follow brief peaks: on serve-warm they read anywhere from about
	// 17 to about 20 MB while the round peaks stayed near 16 MB.
	rssEvery = 10 * time.Millisecond
	// maxLateness bounds the generator's own p99 lateness; beyond it
	// the run is marked invalid on standard error.
	maxLateness = 20 * time.Millisecond
	// refRequests is how many steady-phase requests the in-process
	// passes replay and trace; oracleSample of them, chosen by seed, also
	// go through the interpreter oracle. On serve-cold every other steady
	// answer, and coldSample answers chosen by seed from the passes and
	// the overload phase, are also compared with an in-process answer.
	refRequests  = 64
	oracleSample = 8
	coldSample   = 256
)

var queries = []string{serve.QueryLT, serve.QueryAlias, serve.QuerySanitize}

// serveInputs is one serve workload's generated traffic. Requests
// index programs.
type serveInputs struct {
	programs []item
	bodies   [][]byte
	warm     []int
	passes   [][]int
	steady   []int
	overload []int
}

func genServeInputs(seed int64, cold bool, seconds float64) (*serveInputs, error) {
	capRPS := capacity[cold]
	// serve-warm phases hold whole cycles of the program set, so every
	// phase of every seed has the same mix of program sizes.
	unit := 1.0
	if !cold {
		unit = warmPrograms
	}
	size := func(n float64) int { return int(max(1, math.Round(n/unit)) * unit) }
	nPass := size(capRPS * passShare * seconds / rounds)
	nSteady := size(capRPS*steadyLoad*steadyShare*seconds/rounds) * rounds
	nOver := size(capRPS*overloadLoad*overloadShare*seconds/rounds) * rounds
	in := &serveInputs{}
	var next func(phase, j int) int
	if cold {
		// Every request is a distinct csmith program derived from the
		// seed, the phase and the request's place in it, so nearly
		// every memo lookup misses and a phase's programs do not depend
		// on the length of the phases before it.
		next = func(phase, j int) int {
			i := len(in.programs)
			src := csmith.Generate(csmith.Config{
				Seed:        seed<<32 | int64(phase)<<24 | int64(j),
				MaxPtrDepth: 2 + j%4,
				Stmts:       15 + (j*7)%40,
			})
			in.programs = append(in.programs, item{name: fmt.Sprintf("cold-%d-%d-%d", seed, phase, j), src: src})
			return i
		}
	} else {
		// A fixed set of test-suite programs, requested in seeded order.
		for _, p := range corpus.TestSuite(warmPrograms) {
			in.programs = append(in.programs, item{name: p.Name, src: p.Source})
		}
		rng := rand.New(rand.NewSource(seed))
		var order []int
		next = func(int, int) int {
			if len(order) == 0 {
				order = rng.Perm(warmPrograms)
			}
			p := order[0]
			order = order[1:]
			return p
		}
	}
	phases := 0
	seq := func(n int) []int {
		phases++
		out := make([]int, n)
		for j := range out {
			out[j] = next(phases, j)
		}
		return out
	}
	if cold {
		in.warm = seq(coldWarmPrograms)
	} else {
		for i := 0; i < warmPrograms; i++ {
			in.warm = append(in.warm, i)
		}
	}
	for r := 0; r < rounds; r++ {
		in.passes = append(in.passes, seq(nPass))
	}
	in.steady = seq(nSteady)
	in.overload = seq(nOver)
	for _, it := range in.programs {
		body, err := json.Marshal(serve.Request{Name: it.name, Source: it.src, Queries: queries})
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, body)
	}
	return in, nil
}

// daemon is a running sraad child.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	logDone chan struct{}
	log     bytes.Buffer // stderr; read only after logDone closes
}

// startDaemon starts sraad with its default flags on a free port and
// waits until it answers /healthz. sraad runs at nice 5: the generator
// needs little CPU, but needs it on time, and on a 2-CPU host a
// saturated daemon would otherwise delay its releases, a delay the
// latency, timed from the due time, would charge to the daemon.
func startDaemon(bin string, client *http.Client) (*daemon, error) {
	cmd := exec.Command("nice", "-n", "5", filepath.Join(bin, "sraad"), "-addr", "127.0.0.1:0")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start sraad: %w", err)
	}
	d := &daemon{cmd: cmd, logDone: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.logDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "sraad: listening on "); ok {
				addr <- a
			}
			d.log.WriteString(line + "\n")
		}
	}()
	select {
	case a := <-addr:
		d.url = "http://" + a
	case <-time.After(10 * time.Second):
		d.kill()
		return nil, fmt.Errorf("sraad did not report its address:\n%s", d.log.String())
	case <-d.logDone:
		d.kill()
		return nil, fmt.Errorf("sraad exited at start:\n%s", d.log.String())
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		resp, err := client.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("sraad not ready: %v", err)
		}
	}
}

// stop drains sraad with SIGTERM and waits for it; a clean drain
// exits 0.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	done := make(chan error, 1)
	go func() {
		<-d.logDone
		done <- d.cmd.Wait()
	}()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("sraad drain: %v\n%s", err, d.log.String())
		}
		return nil
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return fmt.Errorf("sraad did not drain within 20s")
	}
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.logDone
	d.cmd.Wait()
}

// rssMB reads the child's resident set (VmRSS).
func (d *daemon) rssMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc status")
}

// cpuSeconds reads the child's CPU time, the sum over its threads of
// the first field of /proc/<pid>/task/<tid>/schedstat: nanoseconds
// run, without the time the hypervisor stole. /proc/<pid>/stat gives
// the same sum only in ticks of 10 ms, too coarse for a set-up of
// about 0.1 s. A thread that has exited would drop out of the sum; the
// Go runtime keeps the daemon's threads for its whole life.
func (d *daemon) cpuSeconds() (float64, error) {
	dir := fmt.Sprintf("/proc/%d/task", d.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var ns int64
	for _, t := range tasks {
		data, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if errors.Is(err, os.ErrNotExist) {
			continue // the thread exited after ReadDir
		}
		if err != nil {
			return 0, err
		}
		run, _, _ := strings.Cut(string(data), " ")
		n, err := strconv.ParseInt(run, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s schedstat: %v", t.Name(), err)
		}
		ns += n
	}
	return time.Duration(ns).Seconds(), nil
}

// rssWatch reads a child's resident set every rssEvery and keeps the
// highest reading since the last take.
type rssWatch struct {
	mu         sync.Mutex
	peak       float64
	err        error
	stop, done chan struct{}
}

func (d *daemon) watchRSS() *rssWatch {
	w := &rssWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			mb, err := d.rssMB()
			w.mu.Lock()
			w.peak, w.err = max(w.peak, mb), err
			w.mu.Unlock()
			if err != nil {
				return
			}
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// take returns the highest reading since the last take and starts
// again from none.
func (w *rssWatch) take() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	peak := w.peak
	w.peak = 0
	return peak
}

// close stops the readings and returns the first failed one's error.
func (w *rssWatch) close() error {
	close(w.stop)
	<-w.done
	return w.err
}

// sample is one request of a phase. Times are since the phase start.
// A 200 answer's body is kept raw while the phase runs, so that the
// generator spends its CPU on sending and receiving, and is decoded
// when the phase ends; only what the checks need is then kept.
type sample struct {
	prog      int
	due, done time.Duration
	status    int
	body      []byte // a 200 answer, until decode
	err       error  // transport failure, or an undecodable 200 body
	abandoned bool
	answered  bool // a decoded 200 answer
	degraded  bool
	elapsedMS float64
	out       outcome
	bad       error // an implausible answer
}

func (s *sample) latency() time.Duration { return s.done - s.due }

type phase struct {
	samples  []sample
	lateness []float64 // ms the generator released each request after its due time
	length   time.Duration
}

// post sends one request; buf is the calling connection's reusable
// read buffer.
func post(client *http.Client, url string, body []byte, s *sample, start time.Time, buf *bytes.Buffer) {
	resp, err := client.Post(url+"/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		s.err = err
		s.done = time.Since(start)
		return
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	s.done = time.Since(start)
	s.status = resp.StatusCode
	if err != nil || s.status != http.StatusOK {
		s.err = err
		return
	}
	s.body = bytes.Clone(buf.Bytes())
}

// decode decodes the phase's 200 answers and drops their bodies.
func (ph *phase) decode() *phase {
	for i := range ph.samples {
		s := &ph.samples[i]
		if s.body == nil {
			continue
		}
		var r serve.Response
		err := json.Unmarshal(s.body, &r)
		s.body = nil
		if err != nil {
			s.err = fmt.Errorf("undecodable 200 body: %v", err)
			continue
		}
		s.answered, s.degraded, s.elapsedMS = true, r.Degraded, r.ElapsedMS
		s.out = outcome{Alias: aliasFromWire(r.Alias), LT: ltFromWire(r.LT), Sanitize: sanitizeFromWire(r.Sanitize)}
		if !r.Degraded {
			s.bad = plausible(&r)
		}
	}
	return ph
}

// backlog holds the requests the generator has released and no
// connection has taken yet.
type backlog struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []int
	closed bool
	lifo   bool
}

func newBacklog(lifo bool) *backlog {
	b := &backlog{lifo: lifo}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *backlog) push(i int) {
	b.mu.Lock()
	b.items = append(b.items, i)
	b.mu.Unlock()
	b.cond.Signal()
}

func (b *backlog) close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

// pop waits for a request; ok is false once the backlog is closed and
// empty.
func (b *backlog) pop() (i int, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for len(b.items) == 0 && !b.closed {
		b.cond.Wait()
	}
	if len(b.items) == 0 {
		return 0, false
	}
	if b.lifo {
		i = b.items[len(b.items)-1]
		b.items = b.items[:len(b.items)-1]
	} else {
		i = b.items[0]
		b.items = b.items[1:]
	}
	return i, true
}

// openLoop sends seq at rate requests per second from conns()
// connections. Each request is due at a fixed time whether or not
// earlier ones were answered, and its latency runs from that time.
// With deadline > 0 the phase models clients with a deadline under
// overload: connections take the newest waiting request first and
// give up on a request already deadline past its due time.
func openLoop(client *http.Client, url string, in *serveInputs, seq []int, rate float64, deadline time.Duration) *phase {
	n := len(seq)
	ph := &phase{samples: make([]sample, n), lateness: make([]float64, n)}
	ph.length = time.Duration(float64(n) / rate * float64(time.Second))
	b := newBacklog(deadline > 0)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i, ok := b.pop()
				if !ok {
					return
				}
				s := &ph.samples[i]
				if deadline > 0 && time.Since(start)-s.due > deadline {
					s.abandoned = true
					continue
				}
				post(client, url, in.bodies[s.prog], s, start, &buf)
			}
		}()
	}
	for i, p := range seq {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		if d := due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		ph.lateness[i] = float64(time.Since(start)-due) / 1e6
		ph.samples[i].prog, ph.samples[i].due = p, due
		b.push(i)
	}
	b.close()
	wg.Wait()
	return ph
}

// closedLoop sends seq from conns() connections, each sending its next
// request when the previous answer arrives.
func closedLoop(client *http.Client, url string, in *serveInputs, seq []int) *phase {
	ph := &phase{samples: make([]sample, len(seq))}
	ch := make(chan int)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := range ch {
				s := &ph.samples[i]
				s.due = time.Since(start)
				post(client, url, in.bodies[s.prog], s, start, &buf)
			}
		}()
	}
	for i, p := range seq {
		ph.samples[i].prog = p
		ch <- i
	}
	close(ch)
	wg.Wait()
	ph.length = time.Since(start)
	return ph
}

// tally classifies a phase's answers after decoding them. An answer is
// good when it is a 200, not degraded, and its content checks out;
// every other answer of an attempted request is an error.
type tally struct {
	attempted, good, errors, shed, degraded, wrong int
	checked                                        int // good answers compared with an in-process answer
	firstWrong                                     error
}

func (t *tally) add(ph *phase, expected map[int]outcome) {
	for i := range ph.samples {
		s := &ph.samples[i]
		if s.abandoned {
			continue
		}
		t.attempted++
		switch {
		case s.status == http.StatusOK && !s.answered:
			t.errors++
			t.wrongAnswer(fmt.Errorf("program %d: %v", s.prog, s.err))
		case !s.answered:
			if s.status == http.StatusTooManyRequests {
				t.shed++
			}
			t.errors++
		case s.degraded:
			t.degraded++
			t.errors++
		case s.bad != nil:
			t.errors++
			t.wrongAnswer(fmt.Errorf("program %d: %v", s.prog, s.bad))
		default:
			if want, ok := expected[s.prog]; ok {
				if s.out != want {
					t.errors++
					t.wrongAnswer(fmt.Errorf("program %d: sraad answered %+v, in-process pipeline %+v", s.prog, s.out, want))
					continue
				}
				t.checked++
			}
			t.good++
		}
	}
}

func (t *tally) wrongAnswer(err error) {
	t.wrong++
	if t.firstWrong == nil {
		t.firstWrong = err
	}
}

// plausible checks what must hold for any correct answer, for the
// responses that have no in-process reference.
func plausible(r *serve.Response) error {
	ba, lt, both := r.Alias["BA"], r.Alias["LT"], r.Alias["BA+LT"]
	if len(r.Alias) != 3 || r.Sanitize == nil {
		return fmt.Errorf("missing result sets")
	}
	if ba.Queries != lt.Queries || ba.Queries != both.Queries {
		return fmt.Errorf("alias rows disagree on the query count")
	}
	if both.NoAlias < ba.NoAlias || both.NoAlias < lt.NoAlias {
		return fmt.Errorf("BA+LT proves less than BA or LT alone")
	}
	if s := r.Sanitize; s.Safe+s.Unsafe+s.Unknown != s.Checks {
		return fmt.Errorf("sanitize verdicts do not sum to the checks")
	}
	return nil
}

func runServe(cfg config, cold bool) (*result, error) {
	client := &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: conns(), MaxIdleConnsPerHost: conns()},
	}
	defer client.CloseIdleConnections()

	var setups []float64
	var in *serveInputs
	var d *daemon
	for r := 0; r < serveSetupReps; r++ {
		var took float64
		var err error
		if in, d, took, err = setUp(cfg, cold, client); err != nil {
			return nil, err
		}
		setups = append(setups, took)
		if r < serveSetupReps-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	ms, err := measure(client, d, in, cold)
	if err != nil {
		return nil, err
	}
	steady, over := ms.steady, ms.over

	// Untimed checks: in-process reference answers for the sample, the
	// pins, and the oracle.
	refItems, refProgs := refSample(in)
	newCache := func() (*harness.Cache, error) {
		c := harness.NewCache()
		if _, _, err := runPass(nil, pick(in, in.warm), serveSpec(), c, nil); err != nil {
			return nil, err
		}
		return c, nil
	}
	cache, err := newCache()
	if err != nil {
		return nil, err
	}
	oracleRNG := rand.New(rand.NewSource(cfg.seed))
	keepSet := map[int]bool{}
	for len(keepSet) < min(oracleSample, len(refItems)) {
		keepSet[oracleRNG.Intn(len(refItems))] = true
	}
	ref, _, err := runPass(nil, refItems, serveSpec(), cache, func(i int) bool { return keepSet[i] })
	if err != nil {
		return nil, err
	}
	expected := map[int]outcome{}
	for i, p := range refProgs {
		expected[p] = ref.outs[i]
	}
	if cold {
		more := coldChecks(in, ms, expected, cfg.seed)
		outs, err := referenceOutcomes(pick(in, more))
		if err != nil {
			return nil, err
		}
		for i, p := range more {
			expected[p] = outs[i]
		}
	}

	var all, st, ov tally
	for _, ph := range ms.passes {
		all.add(ph, expected)
	}
	st.add(steady, expected)
	ov.add(over, expected)
	res := &result{
		Correct:   all.wrong+st.wrong+ov.wrong == 0,
		Attempted: all.attempted + st.attempted + ov.attempted,
		// Overload-phase sheds are misses of goodput, not failures.
		Failed: all.errors + st.errors + ov.errors - ov.shed,
	}
	for _, t := range []tally{all, st, ov} {
		if t.firstWrong != nil {
			return res, t.firstWrong
		}
	}
	if err := checkServePins(cfg, cold, refItems, ref); err != nil {
		res.Correct = false
		return res, err
	}
	for i, kept := range ref.kept {
		if v := oracle(kept.Module, kept.LT); v > 0 {
			res.Correct = false
			return res, fmt.Errorf("%s: interpreter oracle found %d violations", refItems[i].name, v)
		}
	}
	ref.kept = nil

	lat := latencies(steady.samples)
	good := 0
	for i := range over.samples {
		if s := &over.samples[i]; s.answered && !s.degraded && s.bad == nil && s.latency() <= latencyLimit {
			good++
		}
	}
	view := clientView{latencyP50MS: median(lat), goodputRPS: float64(good) / over.length.Seconds(), wallS: median(ms.passWalls)}
	if cfg.trace {
		cache, err := newCache()
		if err != nil {
			res.Correct = false
			return res, err
		}
		sl := runLayer{
			shed:          all.shed + st.shed + ov.shed,
			degraded:      all.degraded + st.degraded + ov.degraded,
			latenessP99MS: quantile(steady.lateness, 0.99),
			client:        view,
		}
		var handler, wait []float64
		for i := range steady.samples {
			if s := &steady.samples[i]; s.answered {
				handler = append(handler, s.elapsedMS)
				wait = append(wait, float64(s.latency())/1e6-s.elapsedMS)
			}
		}
		sl.handlerMS, sl.waitMS = mean(handler), mean(wait)
		m, err := tracedPass(cfg, refItems, serveSpec(), cache, ref, sl)
		if err != nil {
			res.Correct = false
			return res, err
		}
		res.Metrics = m
		return res, nil
	}

	res.Metrics = map[string]metric{
		"cpu_per_request_ms": {median(ms.cpuPerAnswer), "ms"},
		"peak_rss_mb":        {ms.peakRSSMB, "MB"},
		"success_ratio":      {float64(st.good) / float64(max(st.attempted, 1)), "ratio"},
		"setup_s":            {median(setups), "s"},
	}
	// The wall-clock figures go to standard error and, in a traced run,
	// to the loadgen.* metrics: on a shared 2-CPU host their run-to-run
	// spread follows the hypervisor's steal too closely to hold a bound
	// (README.md, Steadiness).
	fmt.Fprintf(os.Stderr, "perfbench: %s capacity %.1f req/s over %d closed-loop passes (pass wall median %.4f s); steady %d req at %.0f/s, overload %d req at %.0f/s (%d abandoned, goodput %.1f/s); generator p99 lateness %.2f ms steady, %.2f ms overload; %d answers compared in process; steady latency p50 %.3f ms, p90 %.3f ms, p95 %.3f ms, p99 %.3f ms over all %d answers\n",
		cfg.workload, float64(len(in.passes[0]))/view.wallS, len(ms.passWalls), view.wallS,
		len(in.steady), capacity[cold]*steadyLoad, len(in.overload), capacity[cold]*overloadLoad, len(in.overload)-ov.attempted, view.goodputRPS,
		quantile(steady.lateness, 0.99), quantile(over.lateness, 0.99), all.checked+st.checked+ov.checked,
		view.latencyP50MS, quantile(lat, 0.9), quantile(lat, 0.95), quantile(lat, 0.99), len(lat))
	return res, nil
}

// latencies returns the latencies in ms of the answered samples.
func latencies(samples []sample) []float64 {
	var out []float64
	for i := range samples {
		if s := &samples[i]; s.answered {
			out = append(out, float64(s.latency())/1e6)
		}
	}
	return out
}

// merge joins phases into one, in order.
func merge(phs []*phase) *phase {
	out := &phase{}
	for _, ph := range phs {
		out.samples = append(out.samples, ph.samples...)
		out.lateness = append(out.lateness, ph.lateness...)
		out.length += ph.length
	}
	return out
}

// setUp generates the inputs, starts sraad and runs the warm pass;
// took is the CPU time that took, this process's and the daemon's.
func setUp(cfg config, cold bool, client *http.Client) (in *serveInputs, d *daemon, took float64, err error) {
	self := selfCPU()
	if in, err = genServeInputs(cfg.seed, cold, cfg.seconds); err != nil {
		return nil, nil, 0, err
	}
	if d, err = startDaemon(cfg.bin, client); err != nil {
		return nil, nil, 0, err
	}
	warm := closedLoop(client, d.url, in, in.warm).decode()
	daemonCPU, err := d.cpuSeconds()
	if err != nil {
		d.kill()
		return nil, nil, 0, err
	}
	took = selfCPU() - self + daemonCPU
	var wt tally
	wt.add(warm, nil)
	if wt.good != len(in.warm) {
		d.kill()
		return nil, nil, 0, fmt.Errorf("warm pass: %d of %d answers good (first problem: %v)", wt.good, len(in.warm), wt.firstWrong)
	}
	return in, d, took, nil
}

// measured is the record of one measured phase.
type measured struct {
	passes       []*phase
	passWalls    []float64
	steady, over *phase
	peakRSSMB    float64
	// cpuPerAnswer is, for each round, the daemon's CPU time over the
	// round's pass and steady segment divided by their answers, in ms.
	cpuPerAnswer []float64
}

// measure runs the measured phase against d and stops d: rounds of a
// closed-loop pass, a steady segment and an overload segment, so that
// every metric samples the whole run. When the generator ran late it
// says on standard error that the run is invalid: its latencies then
// hold the generator's own delay, not only the program's.
func measure(client *http.Client, d *daemon, in *serveInputs, cold bool) (*measured, error) {
	capRPS := capacity[cold]
	ms := &measured{}
	rss := d.watchRSS()
	var peaks []float64
	var steady, over []*phase
	sSeg, oSeg := len(in.steady)/rounds, len(in.overload)/rounds
	var cpuErr error
	cpu := func() float64 {
		c, err := d.cpuSeconds()
		cpuErr = errors.Join(cpuErr, err)
		return c
	}
	for r, seq := range in.passes {
		c0 := cpu()
		ph := closedLoop(client, d.url, in, seq)
		c1 := cpu()
		ph.decode()
		ms.passes = append(ms.passes, ph)
		ms.passWalls = append(ms.passWalls, ph.length.Seconds())
		c2 := cpu()
		st := openLoop(client, d.url, in, in.steady[r*sSeg:(r+1)*sSeg], capRPS*steadyLoad, 0)
		c3 := cpu()
		steady = append(steady, st.decode())
		answers := len(latencies(ph.samples)) + len(latencies(st.samples))
		ms.cpuPerAnswer = append(ms.cpuPerAnswer, (c1-c0+c3-c2)*1e3/float64(max(answers, 1)))
		over = append(over, openLoop(client, d.url, in, in.overload[r*oSeg:(r+1)*oSeg], capRPS*overloadLoad, latencyLimit).decode())
		peaks = append(peaks, rss.take())
	}
	ms.steady, ms.over = merge(steady), merge(over)
	rssErr := rss.close()
	ms.peakRSSMB = median(peaks)
	if err := d.stop(); err != nil {
		return nil, err
	}
	if err := errors.Join(rssErr, cpuErr); err != nil {
		return nil, err
	}
	// The generator shares the CPUs with a saturated daemon during
	// overload, so it is held to the looser bound there.
	for _, c := range []struct {
		ph    *phase
		bound time.Duration
	}{{ms.steady, maxLateness}, {ms.over, latencyLimit}} {
		if late := quantile(c.ph.lateness, 0.99); late > float64(c.bound)/1e6 {
			fmt.Fprintf(os.Stderr, "perfbench: invalid run: load generator p99 lateness %.2f ms exceeds %v\n", late, c.bound)
		}
	}
	return ms, nil
}

func pick(in *serveInputs, seq []int) []item {
	out := make([]item, len(seq))
	for i, p := range seq {
		out[i] = in.programs[p]
	}
	return out
}

// refSample is the requests the in-process passes replay and check
// against the served answers: the first refRequests of the steady
// phase, which on serve-warm cycle through the 16 programs and on
// serve-cold are distinct programs fixed by the seed alone.
func refSample(in *serveInputs) ([]item, []int) {
	progs := in.steady[:min(refRequests, len(in.steady))]
	return pick(in, progs), progs
}

// coldChecks picks the serve-cold answers that the reference sample
// does not cover and the run compares with an in-process answer: every
// other steady-phase request, and coldSample answered requests chosen by
// seed from the closed-loop passes and the overload phase.
func coldChecks(in *serveInputs, ms *measured, covered map[int]outcome, seed int64) []int {
	var out []int
	for _, p := range in.steady {
		if _, ok := covered[p]; !ok {
			out = append(out, p)
		}
	}
	var rest []int
	for _, ph := range append(append([]*phase(nil), ms.passes...), ms.over) {
		for i := range ph.samples {
			if s := &ph.samples[i]; s.answered {
				rest = append(rest, s.prog)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	return append(out, rest[:min(coldSample, len(rest))]...)
}

// referenceOutcomes answers items with the production harness calls
// in process, uncached, over conns() workers.
func referenceOutcomes(items []item) ([]outcome, error) {
	outs := make([]outcome, len(items))
	workers := conns()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(items); i += workers {
				po, _, err := runPass(nil, items[i:i+1], serveSpec(), nil, nil)
				if err != nil {
					errs[w] = err
					return
				}
				outs[i] = po.outs[0]
			}
		}()
	}
	wg.Wait()
	return outs, errors.Join(errs...)
}

// checkServePins compares the in-process answers with pins.json:
// per program on serve-warm, the combined sample per seed on
// serve-cold.
func checkServePins(cfg config, cold bool, items []item, ref *passOut) error {
	if cold {
		return checkPin(cfg.workload, strconv.FormatInt(cfg.seed, 10), combine(ref.outs))
	}
	for i, it := range items {
		if err := checkPin(cfg.workload, it.name, ref.outs[i]); err != nil {
			return err
		}
	}
	return nil
}
