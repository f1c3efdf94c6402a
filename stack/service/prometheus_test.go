package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/stack"
	"repro/stack/cache"
)

// TestMetricsPrometheusFormat: ?format=prometheus renders the same
// counters as the JSON encoding in the text exposition format, with
// cumulative histogram buckets and the cache section present when a
// cache is configured.
func TestMetricsPrometheusFormat(t *testing.T) {
	mem := cache.NewMemory(1 << 20)
	az := stack.New(stack.WithCache(mem))
	srv := New(az, Options{CacheStats: az.CacheStats})

	reqBody, _ := json.Marshal(map[string]string{"name": "figure1.c", "source": fig1Src})
	for i := 0; i < 2; i++ {
		if w := doJSON(t, srv, http.MethodPost, "/v1/analyze", string(reqBody)); w.Code != http.StatusOK {
			t.Fatalf("analyze %d: status %d: %s", i, w.Code, w.Body)
		}
	}

	w := doJSON(t, srv, http.MethodGet, "/metrics?format=prometheus", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != prometheusContentType {
		t.Errorf("Content-Type = %q, want %q", ct, prometheusContentType)
	}
	body := w.Body.String()
	for _, want := range []string{
		`stackd_requests_total{route="/v1/analyze"} 2`,
		"stackd_result_cache_result_hits_total 1",
		"stackd_result_cache_result_misses_total 1",
		"stackd_result_cache_hits_total 1",
		"stackd_result_cache_puts_total 1",
		"stackd_result_cache_entries 1",
		"# TYPE stackd_request_duration_ms histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
	// Histogram buckets are cumulative and end at +Inf == _count.
	var infCount, count string
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, `stackd_request_duration_ms_bucket{route="/v1/analyze",le="+Inf"} `) {
			infCount = line[strings.LastIndex(line, " ")+1:]
		}
		if strings.HasPrefix(line, `stackd_request_duration_ms_count{route="/v1/analyze"} `) {
			count = line[strings.LastIndex(line, " ")+1:]
		}
	}
	if infCount == "" || infCount != count || infCount != "2" {
		t.Errorf("+Inf bucket %q, _count %q; want both \"2\"", infCount, count)
	}
	// Every line is a comment or `name{labels} value` — no stray JSON.
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}

	// The JSON encoding stays the default and carries the same cache
	// snapshot.
	w = doJSON(t, srv, http.MethodGet, "/metrics", "")
	var snap metricsSnapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.ResultCache == nil || snap.ResultCache.Hits != 1 || snap.ResultCache.Misses != 1 {
		t.Errorf("JSON resultCache = %+v, want hits=1 misses=1", snap.ResultCache)
	}
	if w := doJSON(t, srv, http.MethodGet, "/metrics?format=bogus", ""); w.Code != http.StatusBadRequest {
		t.Errorf("format=bogus status = %d, want 400", w.Code)
	}
}

// TestMetricsSharpeningCounters: the SSA and SCCP sharpening counters
// of served requests reach /metrics. The source guards a dead region
// with a loop-carried constant only SCCP's lattice proves.
func TestMetricsSharpeningCounters(t *testing.T) {
	srv := newTestServer(Options{})
	src := `
int sccp(int n, int a, int b) {
	int flag = 0;
	int dead = 0;
	int s = a;
	int i = 0;
	do {
		s = s + b;
		if (flag)
			dead = dead + b / n;
		i = i + 1;
	} while (i < n);
	return s + dead;
}
`
	reqBody, _ := json.Marshal(map[string]string{"name": "sccp.c", "source": src})
	if w := doJSON(t, srv, http.MethodPost, "/v1/analyze", string(reqBody)); w.Code != http.StatusOK {
		t.Fatalf("analyze: status %d: %s", w.Code, w.Body)
	}
	body := doJSON(t, srv, http.MethodGet, "/metrics?format=prometheus", "").Body.String()
	for _, name := range []string{"stackd_solver_ssa_sharpened_total", "stackd_solver_sccp_sharpened_total"} {
		var v string
		for _, line := range strings.Split(body, "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[0] == name {
				v = f[1]
			}
		}
		if v == "" || v == "0" {
			t.Errorf("%s = %q after a sharpening request, want nonzero", name, v)
		}
	}
}

// TestMetricsNoCacheOmitsSection: without a cache the JSON snapshot
// omits resultCache and the Prometheus output has no cache metrics.
func TestMetricsNoCacheOmitsSection(t *testing.T) {
	srv := newTestServer(Options{})
	w := doJSON(t, srv, http.MethodGet, "/metrics", "")
	if strings.Contains(w.Body.String(), "resultCache") {
		t.Errorf("cacheless /metrics mentions resultCache: %s", w.Body)
	}
	w = doJSON(t, srv, http.MethodGet, "/metrics?format=prometheus", "")
	if strings.Contains(w.Body.String(), "stackd_result_cache_hits_total") {
		t.Error("cacheless prometheus output has cache residency metrics")
	}
}

// TestLimitListener: at most n connections are open at once; slots
// free on close (even double close) and Accept resumes.
func TestLimitListener(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := LimitListener(inner, 2)
	defer ln.Close()

	accepted := make(chan net.Conn, 8)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()

	dial := func() net.Conn {
		t.Helper()
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c1, c2 := dial(), dial()
	defer c1.Close()
	defer c2.Close()
	s1 := <-accepted
	s2 := <-accepted

	// Third connection completes the TCP handshake (kernel backlog) but
	// must not be Accepted while both slots are held.
	c3 := dial()
	defer c3.Close()
	select {
	case <-accepted:
		t.Fatal("third connection accepted beyond the limit")
	case <-time.After(100 * time.Millisecond):
	}

	// Closing one accepted conn twice frees exactly one slot.
	s1.Close()
	s1.Close()
	select {
	case s3 := <-accepted:
		defer s3.Close()
	case <-time.After(2 * time.Second):
		t.Fatal("slot not released after close; third connection never accepted")
	}
	s2.Close()
}

// TestLimitListenerServesHTTP: an http.Server on a limited listener
// still answers every request of a burst wider than the cap — requests
// queue at the listener instead of failing.
func TestLimitListenerServesHTTP(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := LimitListener(inner, 2)
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	})}
	go srv.Serve(ln)
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One client per request, no keep-alive pooling: every request
			// is its own connection, so the burst genuinely exceeds the cap.
			client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}
			resp, err := client.Get("http://" + ln.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if b, _ := io.ReadAll(resp.Body); string(b) != "ok" {
				errs <- fmt.Errorf("body = %q", b)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestLimitListenerZeroIsUnlimited: n <= 0 returns the inner listener
// untouched.
func TestLimitListenerZeroIsUnlimited(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	if got := LimitListener(inner, 0); got != inner {
		t.Error("LimitListener(l, 0) wrapped the listener")
	}
	if got := LimitListener(inner, -1); got != inner {
		t.Error("LimitListener(l, -1) wrapped the listener")
	}
}

// TestSweepStatsTrailerCacheSection: with a cache configured the
// ?stats=1 trailer carries the cache counters; the warm repeat of the
// same batch is a byte-identical diagnostic stream answered from the
// cache.
func TestSweepStatsTrailerCacheSection(t *testing.T) {
	mem := cache.NewMemory(1 << 20)
	az := stack.New(stack.WithCache(mem))
	srv := New(az, Options{CacheStats: az.CacheStats})

	body, _ := json.Marshal(map[string]any{"sources": []map[string]string{
		{"name": "a.c", "source": fig1Src},
		{"name": "b.c", "source": divSrc},
	}})
	sweep := func() (lines []string) {
		w := doJSON(t, srv, http.MethodPost, "/v1/sweep?stats=1", string(body))
		if w.Code != http.StatusOK {
			t.Fatalf("status = %d: %s", w.Code, w.Body)
		}
		return strings.Split(strings.TrimRight(w.Body.String(), "\n"), "\n")
	}
	cold := sweep()
	warm := sweep()
	if len(cold) != 3 || len(warm) != 3 {
		t.Fatalf("line counts = %d, %d; want 3 (2 files + trailer)", len(cold), len(warm))
	}
	// Per-file lines (everything but the trailer) are byte-identical.
	for i := 0; i < 2; i++ {
		if cold[i] != warm[i] {
			t.Errorf("line %d differs cold vs warm:\n  %s\n  %s", i, cold[i], warm[i])
		}
	}
	var trailer struct {
		Stats stack.Stats  `json:"stats"`
		Cache *cache.Stats `json:"cache"`
	}
	if err := json.Unmarshal([]byte(warm[2]), &trailer); err != nil {
		t.Fatal(err)
	}
	if trailer.Stats.CacheResultHits != 2 || trailer.Stats.Queries != 0 {
		t.Errorf("warm trailer stats = %+v, want 2 cache hits and 0 queries", trailer.Stats)
	}
	if trailer.Cache == nil || trailer.Cache.Hits != 2 || trailer.Cache.Puts != 2 {
		t.Errorf("warm trailer cache = %+v, want hits=2 puts=2", trailer.Cache)
	}
}
