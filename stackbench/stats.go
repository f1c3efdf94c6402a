package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles a tail latency may be reported at,
// highest first. A workload reports the highest one that has at least
// minBeyond samples above it at the workload's fixed sample count, so
// the tail is never a single outlier and every run of the workload
// reports the same percentile, however fast the run went.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

const minBeyond = 10

// rank is the 1-based nearest-rank position of percentile p among n
// sorted samples.
func rank(p float64, n int) int {
	// The epsilon keeps float error in p*n from pushing an exact rank
	// (p99.9 of 10,000) up by one.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile picks the highest ladder percentile with at least
// minBeyond of n samples beyond it. With fewer than minBeyond*2
// samples no ladder entry qualifies and the median is returned with
// ok=false.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if n-rank(p, n) >= minBeyond {
			return p, true
		}
	}
	return 50, false
}

// percentile returns the nearest-rank percentile p of xs. Failed
// operations enter xs as +Inf, so they count as missing any limit the
// percentile is held to.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(p, len(s))-1]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latencySummary is the end-to-end latency report of one run.
type latencySummary struct {
	P50, Tail float64 // milliseconds
	TailP     float64 // the percentile Tail was taken at
	N         int     // samples, failures included
	Failed    int     // samples that failed or were refused
}

// summarizeLatency reports the median and tail of ms, where a failed
// or refused operation is +Inf. The tail percentile is fixed by
// tailN, the sample count the workload always reaches, and not by
// len(ms): a run that happened to finish more samples than another
// must report the same statistic, or a change in speed alone could
// move the tail to another percentile.
func summarizeLatency(ms []float64, tailN int) latencySummary {
	s := latencySummary{N: len(ms)}
	for _, v := range ms {
		if math.IsInf(v, 1) {
			s.Failed++
		}
	}
	s.TailP, _ = tailPercentile(tailN)
	s.P50 = percentile(ms, 50)
	s.Tail = percentile(ms, s.TailP)
	return s
}

// logLogSlope fits log(y) = a + b·log(x) by least squares and returns
// b: the exponent with which y grows in x. Points with a non-positive
// coordinate are skipped. It returns NaN when fewer than two distinct
// x values remain.
func logLogSlope(xs, ys []float64) float64 {
	var n, sx, sy, sxx, sxy float64
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 || math.IsInf(ys[i], 0) {
			continue
		}
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		n++
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	den := n*sxx - sx*sx
	if n < 2 || den <= 1e-12 {
		return math.NaN()
	}
	return (n*sxy - sx*sy) / den
}

// sizeExponent groups the times ys by input size xs, takes each
// group's median, and fits the log-log slope through the medians: how
// per-input cost grows with input size. The medians keep a few slow
// outliers (a stall, a queueing spike) from tilting the fit.
func sizeExponent(xs, ys []float64) float64 {
	groups := map[float64][]float64{}
	for i, x := range xs {
		if !math.IsInf(ys[i], 0) {
			groups[x] = append(groups[x], ys[i])
		}
	}
	var gx, gy []float64
	for x, g := range groups {
		gx = append(gx, x)
		gy = append(gy, median(g))
	}
	return logLogSlope(gx, gy)
}

// opSample is one open-loop operation: when it was due by the
// schedule, when the generator actually sent it, and when it finished.
type opSample struct {
	Index           int
	Due, Sent, Done time.Time
	Err             error
}

// latencyMS is the operation's latency measured from its due time, so
// a stall also charges the wait it imposes on later operations; a
// failed or refused operation is +Inf.
func (s opSample) latencyMS() float64 {
	if s.Err != nil {
		return math.Inf(1)
	}
	return ms(s.Done.Sub(s.Due))
}

// lagMS is how late the generator sent the operation.
func (s opSample) lagMS() float64 { return ms(s.Sent.Sub(s.Due)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianWindowRate splits [start, end) into windows, counts the
// operations that completed without error in each, and returns the
// median count as a rate per second. A partial last window is dropped.
// The median keeps a stall in one window from moving the figure.
func medianWindowRate(samples []opSample, start, end time.Time, window time.Duration) float64 {
	n := int(end.Sub(start) / window)
	if n == 0 {
		return math.NaN()
	}
	counts := make([]float64, n)
	for _, s := range samples {
		if w := int(s.Done.Sub(start) / window); s.Err == nil && !s.Done.Before(start) && w < n {
			counts[w]++
		}
	}
	return median(counts) / window.Seconds()
}
