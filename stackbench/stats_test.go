package main

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10, 50, false}, // nothing on the ladder has 10 beyond
		{19, 50, false},
		{20, 50, true},
		{39, 50, true}, // p75 ranks 30th: only 9 beyond
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = p%g,%v, want p%g,%v", c.n, p, ok, c.want, c.ok)
		}
		if ok && c.n-rank(p, c.n) < minBeyond {
			t.Errorf("n=%d: p%g leaves %d beyond", c.n, p, c.n-rank(p, c.n))
		}
	}
}

// The tail percentile is fixed by the workload's sample count, not by
// how many samples a run happened to finish: a run that finished 69
// files and one that finished 39 report the same statistic.
func TestTailFixedBySampleCount(t *testing.T) {
	var fast, slow []float64
	for i := 1; i <= 69; i++ {
		fast = append(fast, float64(i))
		if i <= 39 {
			slow = append(slow, float64(i))
		}
	}
	f, s := summarizeLatency(fast, 20), summarizeLatency(slow, 20)
	if f.TailP != 50 || s.TailP != 50 {
		t.Fatalf("tail at p%g and p%g, want p50 for both (20 samples leave 10 beyond only at p50)", f.TailP, s.TailP)
	}
	if got := summarizeLatency(fast, 100).TailP; got != 90 {
		t.Errorf("tailN 100: tail at p%g, want p90", got)
	}
	if f.N != 69 || f.Tail != 35 {
		t.Errorf("69 samples: N = %d, tail = %g, want 69, 35", f.N, f.Tail)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for p, want := range map[float64]float64{50: 5, 90: 9, 99: 10, 10: 1, 100: 10} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%g = %g, want %g", p, got, want)
		}
	}
}

// A failed or refused operation is +Inf, so it misses any limit: it
// ranks above every completed operation, and once more than half fail
// the median itself is +Inf.
func TestFailuresMissEveryLimit(t *testing.T) {
	var ms []float64
	for i := 0; i < 19; i++ {
		ms = append(ms, 1)
	}
	ms = append(ms, opSample{Err: errors.New("503 refused")}.latencyMS())
	s := summarizeLatency(ms, len(ms))
	if s.Failed != 1 || s.N != 20 {
		t.Fatalf("summary = %+v", s)
	}
	if p := percentile(ms, 95); p != 1 {
		t.Errorf("p95 = %g, want 1 (19 of 20 within)", p)
	}
	if p := percentile(ms, 100); !math.IsInf(p, 1) {
		t.Errorf("p100 = %g, want +Inf", p)
	}
	for i := 0; i < 19; i++ {
		ms = append(ms, math.Inf(1))
	}
	if s := summarizeLatency(ms, len(ms)); !math.IsInf(s.P50, 1) || s.Failed != 20 {
		t.Errorf("20 of 39 failed: p50 = %g, failed = %d; want +Inf, 20", s.P50, s.Failed)
	}
}

func TestLogLogSlope(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var xs, ys, noisy []float64
	for k := 2; k <= 40; k++ {
		x := float64(k)
		xs = append(xs, x)
		ys = append(ys, 3*math.Pow(x, 1.7))
		noisy = append(noisy, 3*math.Pow(x, 2.2)*math.Exp(0.05*rng.NormFloat64()))
	}
	if b := logLogSlope(xs, ys); math.Abs(b-1.7) > 1e-9 {
		t.Errorf("exact power law: slope %g, want 1.7", b)
	}
	if b := logLogSlope(xs, noisy); math.Abs(b-2.2) > 0.05 {
		t.Errorf("noisy power law: slope %g, want 2.2±0.05", b)
	}
	// Failed samples (+Inf) and non-positive sizes are skipped.
	if b := logLogSlope(append(xs, 5, 0), append(ys, math.Inf(1), 7)); math.Abs(b-1.7) > 1e-9 {
		t.Errorf("with skipped points: slope %g, want 1.7", b)
	}
	if b := logLogSlope([]float64{4, 4}, []float64{1, 2}); !math.IsNaN(b) {
		t.Errorf("one distinct x: slope %g, want NaN", b)
	}
}

func TestSizeExponentUsesGroupMedians(t *testing.T) {
	var xs, ys []float64
	for _, k := range []float64{2, 4, 8} {
		for i := 0; i < 9; i++ {
			xs = append(xs, k)
			ys = append(ys, 5*k*k*(1+0.01*float64(i-4)))
		}
	}
	// Outliers on both sides of one group's median and a failure move
	// no median.
	xs = append(xs, 2, 2, 8)
	ys = append(ys, 5000, 0.001, math.Inf(1))
	if b := sizeExponent(xs, ys); math.Abs(b-2) > 1e-9 {
		t.Errorf("slope %g, want 2", b)
	}
	if b := logLogSlope(xs, ys); math.Abs(b-2) < 0.1 {
		t.Errorf("plain fit %g is not thrown off by the outliers; the test proves nothing", b)
	}
}

// Latency runs from the due time, not the send time: an operation the
// generator sent 30 ms late and that took 10 ms has 40 ms latency and
// 30 ms lag.
func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	due := time.Unix(1000, 0)
	s := opSample{Due: due, Sent: due.Add(30 * time.Millisecond), Done: due.Add(40 * time.Millisecond)}
	if got := s.latencyMS(); got != 40 {
		t.Errorf("latency = %g ms, want 40", got)
	}
	if got := s.lagMS(); got != 30 {
		t.Errorf("lag = %g ms, want 30", got)
	}
}

// With one slot and operations slower than the schedule, the generator
// falls behind: lag grows, and latency from the due time keeps growing
// with it while each operation's own service time stays flat.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const service = 20 * time.Millisecond
	samples := openLoop(1000, 6, 1, func(int) error {
		time.Sleep(service)
		return nil
	})
	for i, s := range samples {
		if s.Index != i {
			t.Fatalf("sample %d has index %d", i, s.Index)
		}
		if s.Sent.Before(s.Due) || s.Done.Before(s.Sent) {
			t.Fatalf("sample %d out of order: %+v", i, s)
		}
		if svc := s.Done.Sub(s.Sent); s.latencyMS() < ms(svc) {
			t.Errorf("sample %d: latency %g ms below service time %g ms", i, s.latencyMS(), ms(svc))
		}
	}
	last := samples[len(samples)-1]
	// Due 5 ms after start; sent only after five 20 ms operations.
	if last.lagMS() < ms(4*service) {
		t.Errorf("last lag = %g ms, want >= %g", last.lagMS(), ms(4*service))
	}
	if last.latencyMS() < ms(5*service) {
		t.Errorf("last latency = %g ms, want >= %g", last.latencyMS(), ms(5*service))
	}
}

func TestOpenLoopRecordsErrors(t *testing.T) {
	samples := openLoop(10000, 4, 2, func(i int) error {
		if i == 2 {
			return errors.New("refused")
		}
		return nil
	})
	for i, s := range samples {
		if got := math.IsInf(s.latencyMS(), 1); got != (i == 2) {
			t.Errorf("sample %d: +Inf latency = %v", i, got)
		}
	}
}

func TestMedianWindowRate(t *testing.T) {
	start := time.Unix(0, 0)
	at := func(ms int) time.Time { return start.Add(time.Duration(ms) * time.Millisecond) }
	var samples []opSample
	// Windows of 100 ms: 5, 5, 1 (a stall), 5 completions, then a
	// partial window that is dropped; failures never count.
	for w, n := range []int{5, 5, 1, 5, 9} {
		for i := 0; i < n; i++ {
			samples = append(samples, opSample{Done: at(w*100 + 10*i)})
		}
	}
	samples = append(samples, opSample{Done: at(50), Err: errors.New("refused")})
	got := medianWindowRate(samples, start, at(450), 100*time.Millisecond)
	if got != 50 {
		t.Errorf("rate = %g/s, want 50/s (median of 5,5,1,5 per 100 ms)", got)
	}
}
