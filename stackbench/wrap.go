package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/stack"
	"repro/stack/cache"
)

// The traced service run wraps each layer boundary of the service path
// from the benchmark's side: the dispatcher call, the replica client
// given to shard.New, the HTTP handler, the Checker given to
// service.New, and the cache given to stack.WithCache. A span's parent
// travels in the context down to the client, in a header across HTTP,
// and in the context again into the Analyzer. cache.Cache methods take
// no context, so a cache span finds its parent through the goroutine
// that runs the enclosing Analyzer call.
type tracedWrappers struct {
	tr       *tracer
	running  sync.Map // goroutine ID → spanRef of its stack.analyze span
	refused  atomic.Int64
	solverNS atomic.Int64 // stack.analyze time of calls that ran the solver
}

const spanHeader = "X-Stackbench-Span"

func (w *tracedWrappers) dispatch(ctx context.Context, req int64, call func(context.Context) (*stack.Result, error)) (*stack.Result, error) {
	var res *stack.Result
	var err error
	w.tr.do("shard.dispatch", 0, req, func(id int64) { res, err = call(withSpan(ctx, spanRef{id, req})) })
	return res, err
}

// timedClient wraps the replica client the dispatcher calls.
type timedClient struct {
	inner stack.Checker
	tw    *tracedWrappers
}

func (c *timedClient) CheckSource(ctx context.Context, name, src string) (*stack.Result, error) {
	p := spanOf(ctx)
	var res *stack.Result
	var err error
	c.tw.tr.do("client", p.ID, p.Req, func(id int64) {
		res, err = c.inner.CheckSource(withSpan(ctx, spanRef{id, p.Req}), name, src)
	})
	return res, err
}

func (c *timedClient) CheckSources(ctx context.Context, srcs []stack.Source, emit func(stack.FileResult)) (stack.Stats, error) {
	return c.inner.CheckSources(ctx, srcs, emit)
}

// spanHeaderTransport carries the client span across HTTP.
type spanHeaderTransport struct{ inner http.RoundTripper }

func (t *spanHeaderTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if p := spanOf(r.Context()); p.ID != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, fmt.Sprintf("%d.%d", p.ID, p.Req))
	}
	return t.inner.RoundTrip(r)
}

// timedHandler wraps service.Server.ServeHTTP and counts refusals.
type timedHandler struct {
	inner http.Handler
	tw    *tracedWrappers
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var p spanRef
	// A missing or malformed header leaves a root span.
	fmt.Sscanf(r.Header.Get(spanHeader), "%d.%d", &p.ID, &p.Req)
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	h.tw.tr.do("service.handle", p.ID, p.Req, func(id int64) {
		h.inner.ServeHTTP(sw, r.WithContext(withSpan(r.Context(), spanRef{id, p.Req})))
	})
	if sw.code == http.StatusTooManyRequests || sw.code == http.StatusServiceUnavailable {
		h.tw.refused.Add(1)
	}
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// timedAnalyzer wraps the Analyzer behind the server.
type timedAnalyzer struct {
	inner *stack.Analyzer
	tw    *tracedWrappers
}

func (a *timedAnalyzer) CheckSource(ctx context.Context, name, src string) (*stack.Result, error) {
	p := spanOf(ctx)
	var res *stack.Result
	var err error
	d := a.tw.tr.do("stack.analyze", p.ID, p.Req, func(id int64) {
		g := goroutineID()
		a.tw.running.Store(g, spanRef{id, p.Req})
		defer a.tw.running.Delete(g)
		res, err = a.inner.CheckSource(ctx, name, src)
	})
	if err == nil && res.Stats.Queries > 0 {
		a.tw.solverNS.Add(int64(d))
	}
	return res, err
}

func (a *timedAnalyzer) CheckSources(ctx context.Context, srcs []stack.Source, emit func(stack.FileResult)) (stack.Stats, error) {
	return a.inner.CheckSources(ctx, srcs, emit)
}

// timedCache wraps the cache given to stack.WithCache.
type timedCache struct {
	inner cache.Cache
	tw    *tracedWrappers
}

func (c *timedCache) parent() spanRef {
	v, _ := c.tw.running.Load(goroutineID())
	p, _ := v.(spanRef) // zero outside an Analyzer call: a root span
	return p
}

func (c *timedCache) Get(k cache.Key) ([]byte, bool) {
	p := c.parent()
	var v []byte
	var ok bool
	c.tw.tr.do("cache.get", p.ID, p.Req, func(int64) { v, ok = c.inner.Get(k) })
	return v, ok
}

func (c *timedCache) Put(k cache.Key, val []byte) {
	p := c.parent()
	c.tw.tr.do("cache.put", p.ID, p.Req, func(int64) { c.inner.Put(k, val) })
}

func (c *timedCache) Stats() cache.Stats { return c.inner.Stats() }

// goroutineID parses the running goroutine's ID from its stack header,
// "goroutine 123 [running]:". It costs a microsecond or two, paid only
// in traced runs.
func goroutineID() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64) // the header format is fixed by the runtime
	return id
}

// servicePass starts a service stack (traced when tr is non-nil), sends
// the first serviceTraced requests of the mix in an open loop, checks
// every verdict and stops the stack. It returns the summed request
// service time, the pass's counts, the generator's lags and the
// wrappers (nil when untraced).
func servicePass(ctx context.Context, cfg config, m *requestMix, tr *tracer, o *outcome) (time.Duration, map[string]int64, []float64, *tracedWrappers, error) {
	s, err := startService(ctx, cfg, m, tr)
	if err != nil {
		return 0, nil, nil, nil, err
	}
	if tr != nil {
		tr.reset() // drop the pre-warm's cache spans
	}
	before := s.mem.Stats()
	stats := make([]stack.Stats, serviceTraced)
	samples := openLoop(serviceRate, serviceTraced, cfg.Nproc, func(i int) error {
		var err error
		stats[i], err = s.request(ctx, i, m.spec(i))
		return err
	})
	after := s.mem.Stats()
	s.stop()

	var busy time.Duration
	var lags []float64
	counts := map[string]int64{}
	for i, smp := range samples {
		o.Attempted++
		if smp.Err != nil {
			o.fail(1, "%v", smp.Err)
		} else {
			counts["requests_ok"]++
		}
		busy += smp.Done.Sub(smp.Sent)
		lags = append(lags, smp.lagMS())
		for k, v := range countsOf(stats[i]) {
			counts[k] += v
		}
	}
	counts["cache.hits"] = after.Hits - before.Hits
	counts["cache.misses"] = after.Misses - before.Misses
	counts["cache.puts"] = after.Puts - before.Puts
	counts["cache.evictions"] = after.Evictions - before.Evictions
	if s.tw != nil {
		counts["service.refused"] = s.tw.refused.Load()
	}
	return busy, counts, lags, s.tw, nil
}

// traceService runs the same requests three times on fresh stacks:
// once untraced, as the overhead reference, then twice traced, to check
// that the counts repeat. Metrics come from the second traced pass.
func traceService(cfg config) (*outcome, error) {
	ctx := context.Background()
	m := newRequestMix(cfg.Seed, serviceTraced)
	o := &outcome{Metrics: map[string]float64{}}
	untraced, _, _, _, err := servicePass(ctx, cfg, m, nil, o)
	if err != nil {
		return nil, err
	}
	var counts [2]map[string]int64
	var tw *tracedWrappers
	var busy time.Duration
	var lags []float64
	for pass := range counts {
		busy, counts[pass], lags, tw, err = servicePass(ctx, cfg, m, &tracer{}, o)
		if err != nil {
			return nil, err
		}
	}
	spans := tw.tr.snapshot()
	total, self := layerTimes(spans)
	c := counts[1]
	mt := o.Metrics
	mt["service.handle_ms"] = ms(total["service.handle"])
	mt["client.overhead_ms"] = ms(total["client"] - total["service.handle"])
	mt["shard.dispatch_ms"] = ms(total["shard.dispatch"] - total["client"])
	mt["stack.analyze_ms"] = ms(self["stack.analyze"])
	mt["cache.get_us"] = perCallUS(spans, "cache.get")
	mt["cache.put_us"] = perCallUS(spans, "cache.put")
	mt["cache.hit_share"] = ratio(c["cache.hits"], c["cache.hits"]+c["cache.misses"])
	mt["cache.evictions"] = float64(c["cache.evictions"])
	mt["service.refused"] = float64(c["service.refused"])
	mt["loadgen.lag_ms"] = percentile(lags, 99)
	mt["core.share"] = float64(tw.solverNS.Load()) / float64(total["shard.dispatch"])
	countMetrics(mt, c)
	mt["trace.overhead"] = busy.Seconds() / untraced.Seconds()
	mis := countMismatches(counts[0], c)
	mt["trace.count_mismatches"] = float64(len(mis))
	for _, x := range mis {
		o.fail(1, "count differs between two traced passes: %s", x)
	}
	zeroUnreached(mt)
	saveSpans(cfg, "service", tw.tr, o)
	o.note("service traced: %d requests per pass at %.0f/s; %d cache hits, %d misses", serviceTraced, serviceRate, c["cache.hits"], c["cache.misses"])
	for _, hit := range []bool{true, false} {
		o.note("%s", pathBreakdown(spans, hit))
	}
	o.note("core.share on service: Analyzer time of requests that ran the solver (frontend, IR and core together) over dispatch time")
	o.note("loadgen.lag_ms is the p99 of how late requests were sent; trace.overhead compares summed request service time with an untraced pass")
	return o, nil
}

func perCallUS(spans []span, name string) float64 {
	var n int
	var sum time.Duration
	for _, s := range spans {
		if s.Name == name {
			n++
			sum += s.dur()
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / float64(time.Microsecond)
}

// pathBreakdown splits the summed dispatch time of cache hits (or of
// misses) into each layer's self time. A request is a miss when its
// spans include a cache write.
func pathBreakdown(spans []span, hits bool) string {
	miss := map[int64]bool{}
	for _, s := range spans {
		if s.Name == "cache.put" {
			miss[s.Req] = true
		}
	}
	var sel []span
	reqs := map[int64]bool{}
	for _, s := range spans {
		if miss[s.Req] != hits {
			sel = append(sel, s)
			reqs[s.Req] = true
		}
	}
	total, self := layerTimes(sel)
	kind := "miss"
	if hits {
		kind = "hit"
	}
	out := fmt.Sprintf("%s path: %d requests, mean %.3f ms; self-time shares:", kind, len(reqs), ms(total["shard.dispatch"])/float64(len(reqs)))
	for _, n := range []string{"shard.dispatch", "client", "service.handle", "stack.analyze", "cache.get", "cache.put"} {
		out += fmt.Sprintf(" %s %.1f%%", n, 100*float64(self[n])/float64(total["shard.dispatch"]))
	}
	return out
}
