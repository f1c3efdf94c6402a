package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/stack"
	"repro/stack/cache"
	"repro/stack/client"
	"repro/stack/service"
	"repro/stack/shard"
)

// The service workload is the `stack -remote` path: a shard
// Dispatcher → stack/client → an in-process stack/service server on
// loopback TCP → stack.Analyzer with a memory cache. Most requests
// repeat pre-warmed sources and are answered from the cache, so the
// cache, HTTP/JSON and dispatch layers dominate; the rest are fresh
// sources that miss, run a full analysis and write the cache, so a gain
// for reads that costs writes (or the reverse) shows.
//
// The open loop runs at a light fixed rate, 2,700 requests per
// 30-second run, so the tail is p99 with 27 requests beyond it. One
// request in serviceOpenFreshEvery is fresh, and fresh sizes cycle
// through serviceFuncs, so 56 of the open loop's 168 misses are
// 16-function sources: the 27 requests beyond p99 are about half of
// them, and the tail is the median latency of the largest misses. On a
// shared 2-vCPU host hits take 1-3 ms and 16-function misses about
// 18 ms, so a slow spell of the host that delays a few hits moves the
// tail only within that cluster. A tail among hits measures wake-up
// delays and neighbours instead: with 2% fresh at 50 req/s the p95 fell
// there and moved by 40% from run to run on that host. Hit latency
// shows in latency_p50_ms, the median miss in miss_latency_p50_ms.
//
// The closed loop that follows measures capacity under full load with
// one request in serviceClosedFreshEvery fresh, so capacity stays
// mostly about hits: at the open loop's share misses took most of the
// CPU and capacity moved with the solver's speed from run to run.
//
// No stackd deployment figures exist to set the mix from; the fresh
// shares, the warm set and the source sizes are a choice, not a
// measurement. Every n-th request of a phase is fresh, so the number of
// misses does not vary with the seed, and fresh requests cycle through
// the pool in order, so each source size is equally frequent among
// them.
const (
	serviceRate             = 150.0 // offered requests per second, open loop
	serviceWarm             = 120   // pre-warmed one-file sources
	servicePool             = 240   // sources fresh requests are made from
	serviceOpenFreshEvery   = 16    // open loop: every 16th request is fresh
	serviceClosedFreshEvery = 50    // closed loop: every 50th, 2%
	serviceOpenShare        = 0.6   // share of the run spent in the open loop
	serviceTraced           = 500   // requests in each traced pass
	serviceCacheBytes       = 64 << 20
	capacityWindow          = 500 * time.Millisecond
)

var serviceFuncs = []int{2, 4, 16}

// reqSpec is one request and its known answer.
type reqSpec struct {
	Name, Src string
	Planted   []string
	Funcs     int
	Fresh     bool
}

// requestMix is the seeded request sequence. Requests 0 to openN-1 are
// the open loop's, the rest the closed loop's. Request i is a repeat of
// a seeded choice of warm source or, when it is the last of a block of
// its phase's fresh-every count, a source never sent before (the next
// pool source under a comment naming i).
type requestMix struct {
	seed       int64
	openN      int
	warm, pool []pkgInput
}

func newRequestMix(seed int64, openN int) *requestMix {
	return &requestMix{
		seed:  seed,
		openN: openN,
		warm:  genArchive(seed, serviceWarm, 1, serviceFuncs),
		pool:  genArchive(seed+1<<32, servicePool, 1, serviceFuncs),
	}
}

// splitmix is a stateless hash giving each request index its own
// seeded random draw, so any phase can take any index range.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fresh reports whether request i is fresh and, if so, how many fresh
// requests came before it.
func (m *requestMix) fresh(i int) (ordinal int, ok bool) {
	if i < m.openN {
		return i / serviceOpenFreshEvery, i%serviceOpenFreshEvery == serviceOpenFreshEvery-1
	}
	j := i - m.openN
	return m.openN/serviceOpenFreshEvery + j/serviceClosedFreshEvery, j%serviceClosedFreshEvery == serviceClosedFreshEvery-1
}

func (m *requestMix) spec(i int) reqSpec {
	if f, ok := m.fresh(i); ok {
		// genArchive cycles sizes over its packages, so consecutive
		// fresh requests cycle through serviceFuncs.
		p := m.pool[f%len(m.pool)]
		return reqSpec{
			Name:    fmt.Sprintf("fresh%06d.c", i),
			Src:     fmt.Sprintf("/* fresh request %d-%d */\n", m.seed, i) + p.Files[0],
			Planted: p.Planted, Funcs: p.Funcs, Fresh: true,
		}
	}
	h := splitmix(uint64(m.seed)<<32 ^ uint64(i))
	p := m.warm[h%uint64(len(m.warm))]
	return reqSpec{Name: p.Name + ".c", Src: p.Files[0], Planted: p.Planted, Funcs: p.Funcs}
}

// serviceStack is one running service path. With a tracer, every
// layer boundary is wrapped in spans.
type serviceStack struct {
	az     *stack.Analyzer
	mem    *cache.Memory
	srv    *http.Server
	served chan error
	tp     *http.Transport
	disp   *shard.Dispatcher
	tw     *tracedWrappers // nil when untraced
}

func startService(ctx context.Context, cfg config, m *requestMix, tr *tracer) (*serviceStack, error) {
	s := &serviceStack{mem: cache.NewMemory(serviceCacheBytes), served: make(chan error, 1)}
	var c cache.Cache = s.mem
	if tr != nil {
		s.tw = &tracedWrappers{tr: tr}
		c = &timedCache{inner: s.mem, tw: s.tw}
	}
	s.az = stack.New(stack.WithCache(c), stack.WithWorkers(cfg.Nproc))
	var chk stack.Checker = s.az
	if tr != nil {
		chk = &timedAnalyzer{inner: s.az, tw: s.tw}
	}
	var h http.Handler = service.New(chk, service.Options{CacheStats: s.az.CacheStats})
	if tr != nil {
		h = &timedHandler{inner: h, tw: s.tw}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.srv = &http.Server{Handler: h}
	go func() { s.served <- s.srv.Serve(ln) }()

	// At most one connection per CPU, as a fleet client would hold.
	s.tp = &http.Transport{MaxConnsPerHost: cfg.Nproc, MaxIdleConnsPerHost: cfg.Nproc}
	var rt http.RoundTripper = s.tp
	if tr != nil {
		rt = &spanHeaderTransport{inner: s.tp}
	}
	var replica stack.Checker = client.New("http://"+ln.Addr().String(), client.WithHTTPClient(&http.Client{Transport: rt}))
	if tr != nil {
		replica = &timedClient{inner: replica, tw: s.tw}
	}
	s.disp = shard.New(replica)

	warm := make([]stack.Source, len(m.warm))
	for i, p := range m.warm {
		warm[i] = stack.Source{Name: p.Name + ".c", Text: p.Files[0]}
	}
	if _, err := s.az.CheckSources(ctx, warm, nil); err != nil {
		s.stop()
		return nil, fmt.Errorf("pre-warming the cache: %w", err)
	}
	if err := s.warmPath(ctx, warm, cfg.Nproc); err != nil {
		s.stop()
		return nil, fmt.Errorf("warming the request path: %w", err)
	}
	return s, nil
}

// warmPath sends every warm source once through the dispatcher from
// conns callers, so connections are open and the request path has run
// before anything is timed: a client pays for dialing once, not per
// measured run.
func (s *serviceStack) warmPath(ctx context.Context, warm []stack.Source, conns int) error {
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := c; j < len(warm) && errs[c] == nil; j += conns {
				_, errs[c] = s.disp.CheckSource(ctx, warm[j].Name, warm[j].Text)
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (s *serviceStack) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // a drain timeout leaves nothing to recover
	if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Printf("service stopped with: %v\n", err)
	}
	s.tp.CloseIdleConnections()
}

// request sends one request through the dispatcher and checks the
// verdicts. It returns the response's stats.
func (s *serviceStack) request(ctx context.Context, i int, sp reqSpec) (stack.Stats, error) {
	call := func(ctx context.Context) (*stack.Result, error) { return s.disp.CheckSource(ctx, sp.Name, sp.Src) }
	var res *stack.Result
	var err error
	if s.tw != nil {
		res, err = s.tw.dispatch(ctx, int64(i+1), call)
	} else {
		res, err = call(ctx)
	}
	if err != nil {
		return stack.Stats{}, fmt.Errorf("%s: %w", sp.Name, err)
	}
	if err := checkPlanted(sp.Planted, verdictsOfDiags(res.Diagnostics)); err != nil {
		return res.Stats, fmt.Errorf("%s: %w", sp.Name, err)
	}
	if res.Stats.Timeouts > 0 {
		return res.Stats, fmt.Errorf("%s: %d query timeout(s)", sp.Name, res.Stats.Timeouts)
	}
	return res.Stats, nil
}

// openLoop sends n operations on a fixed schedule, operation i due at
// start + i/rate, with at most conc in flight. When all conc slots are
// busy the generator waits, and the wait shows as lag (Sent - Due) and
// in each later operation's latency, which runs from its due time.
func openLoop(rate float64, n, conc int, op func(i int) error) []opSample {
	samples := make([]opSample, n)
	sem := make(chan struct{}, conc)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		samples[i].Index, samples[i].Due, samples[i].Sent = i, due, time.Now()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := op(i)
			samples[i].Done, samples[i].Err = time.Now(), err
			<-sem
		}(i)
	}
	wg.Wait()
	return samples
}

// closedLoop runs callers that each send their next operation as soon
// as the previous one returns, until the deadline. Operation indices
// start at first and are handed out in order.
func closedLoop(callers, first int, deadline time.Time, op func(i int) error) ([]opSample, time.Duration) {
	var next atomic.Int64
	next.Store(int64(first))
	var mu sync.Mutex
	var samples []opSample
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				t := time.Now()
				err := op(i)
				s := opSample{Index: i, Due: t, Sent: t, Done: time.Now(), Err: err}
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}

func runService(cfg config) (*outcome, error) {
	ctx := context.Background()
	openSecs := float64(cfg.Seconds) * serviceOpenShare
	n := int(serviceRate * openSecs)
	var m *requestMix
	s, setupS, err := timedSetup(func() (*serviceStack, error) {
		m = newRequestMix(cfg.Seed, n)
		return startService(ctx, cfg, m, nil)
	}, (*serviceStack).stop)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	o := &outcome{Metrics: map[string]float64{"setup_s": setupS}}

	op := func(i int) error {
		_, err := s.request(ctx, i, m.spec(i))
		return err
	}
	rss := startRSSWindows()
	open := openLoop(serviceRate, n, cfg.Nproc, op)
	closedStart := time.Now()
	closedEnd := closedStart.Add(time.Duration((float64(cfg.Seconds) - openSecs) * float64(time.Second)))
	closed, closedWall := closedLoop(cfg.Nproc, n, closedEnd, op)
	o.Metrics["peak_rss_mb"] = rss.finish(o)

	var lat, lags, missMS, missFuncs []float64
	for _, smp := range open {
		lat = append(lat, smp.latencyMS())
		lags = append(lags, smp.lagMS())
	}
	okClosed, openMisses := 0, 0
	for i, smp := range append(append([]opSample(nil), open...), closed...) {
		if smp.Err != nil {
			o.fail(1, "%v", smp.Err)
			continue
		}
		if i >= len(open) {
			okClosed++
		}
		if sp := m.spec(smp.Index); sp.Fresh {
			missMS = append(missMS, ms(smp.Done.Sub(smp.Sent)))
			missFuncs = append(missFuncs, float64(sp.Funcs))
			if i < len(open) {
				openMisses++
			}
		}
	}
	o.Attempted = len(open) + len(closed)
	ls := summarizeLatency(lat, n)
	o.Metrics["files_per_s"] = float64(okClosed) / closedWall.Seconds()
	o.Metrics["capacity_rps"] = medianWindowRate(closed, closedStart, closedEnd, capacityWindow)
	o.Metrics["latency_p50_ms"] = ls.P50
	o.Metrics["latency_tail_ms"] = ls.Tail
	o.Metrics["miss_latency_p50_ms"] = median(missMS)
	o.Metrics["size_exponent"] = sizeExponent(missFuncs, missMS)
	o.note("service: open loop %d requests at %.0f/s with at most %d connections, then %d callers closed loop for %.2fs (%d requests)",
		n, serviceRate, cfg.Nproc, cfg.Nproc, closedWall.Seconds(), len(closed))
	o.note("latency_tail_ms is p%g (fixed by the open loop's %d requests) over N=%d requests, timed from when each was due; %d failed or refused count as missing any limit", ls.TailP, n, ls.N, ls.Failed)
	o.note("fresh requests: 1 in %d in the open loop, 1 in %d in the closed loop; %d of the open loop's %d misses beyond its tail percentile", serviceOpenFreshEvery, serviceClosedFreshEvery, missesBeyond(open, m, ls.Tail), openMisses)
	o.note("loadgen lag: p50 %.3f ms, max %.3f ms", percentile(lags, 50), percentile(lags, 100))
	o.note("files_per_s: correct completions per second over the whole closed loop; capacity_rps: median over %v windows of the closed loop's correct completions", capacityWindow)
	o.note("miss_latency_p50_ms: median service time of the %d fresh requests (cache misses) of both phases, %d of them in the open loop", len(missMS), openMisses)
	o.note("size_exponent: slope of log(median miss service time) on log(functions per source), functions in %v", serviceFuncs)
	return o, nil
}

// missesBeyond counts the fresh requests among samples at or above the
// tail latency.
func missesBeyond(samples []opSample, m *requestMix, tail float64) int {
	n := 0
	for _, smp := range samples {
		if _, ok := m.fresh(smp.Index); ok && smp.Err == nil && smp.latencyMS() >= tail {
			n++
		}
	}
	return n
}
