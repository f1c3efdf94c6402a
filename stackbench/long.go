package main

import (
	"context"
	"math"
	"time"

	"repro/stack"
)

// The long-functions workload is one caller running
// Analyzer.CheckSource in a closed loop on one-function files of k
// repetitions of an unstable overflow check and a division. core and
// sat do almost all the work and the queries per function grow with k,
// so solver-core and minimal-UB-set changes show here and frontend or
// cache changes do not. The k range is capped only to keep enough
// files in a run for steady medians and a tail percentile; the
// superlinear growth shows in size_exponent.
const (
	longFiles  = 4000 // more than any run reaches
	longTraced = 6    // files in the traced replay: each k twice
	// longTailN is the file count every run reaches, past the deadline
	// if need be. It fixes the tail at p90 (10 files beyond).
	longTailN = 100
)

// longKs are the function sizes drawn. An odd number of sizes puts the
// median in the middle of one size's files, not on the step between
// two, and the p90 tail inside the largest size's files.
var longKs = []int{2, 3, 4}

// checkLongFile analyzes one file and checks its verdicts, returning
// how long the call took and whether it succeeded.
func checkLongFile(ctx context.Context, az *stack.Analyzer, in longInput, o *outcome) (time.Duration, bool) {
	o.Attempted++
	t0 := time.Now()
	res, err := az.CheckSource(ctx, in.Name, in.Src)
	d := time.Since(t0)
	switch {
	case err != nil:
		o.fail(1, "%s: %v", in.Name, err)
	case res.Stats.Timeouts > 0:
		o.fail(1, "%s: %d query timeout(s)", in.Name, res.Stats.Timeouts)
	default:
		if err := checkLong(in, verdictsOfDiags(res.Diagnostics)); err != nil {
			o.fail(1, "%s: %v", in.Name, err)
		} else {
			return d, true
		}
	}
	return d, false
}

func runLong(cfg config) (*outcome, error) {
	type state struct {
		in []longInput
		az *stack.Analyzer
	}
	st, setupS, err := timedSetup(func() (state, error) {
		return state{genLong(cfg.Seed, longFiles, longKs), stack.New()}, nil
	}, func(state) {})
	if err != nil {
		return nil, err
	}
	o := &outcome{Metrics: map[string]float64{"setup_s": setupS}}
	ctx := context.Background()
	var lat, ks []float64
	rss := startRSSWindows()
	t0 := time.Now()
	deadline := t0.Add(time.Duration(cfg.Seconds) * time.Second)
	for i := 0; i < len(st.in) && (len(lat) < longTailN || time.Now().Before(deadline)); i++ {
		d, ok := checkLongFile(ctx, st.az, st.in[i], o)
		if !ok {
			lat = append(lat, math.Inf(1))
		} else {
			lat = append(lat, ms(d))
		}
		ks = append(ks, float64(st.in[i].K))
	}
	wall := time.Since(t0)
	o.Metrics["peak_rss_mb"] = rss.finish(o)
	rate := float64(len(lat)) / wall.Seconds()
	o.Metrics["files_per_s"] = rate
	o.Metrics["capacity_rps"] = rate
	ls := summarizeLatency(lat, longTailN)
	o.Metrics["latency_p50_ms"] = ls.P50
	o.Metrics["miss_latency_p50_ms"] = ls.P50
	o.Metrics["latency_tail_ms"] = ls.Tail
	o.Metrics["size_exponent"] = sizeExponent(ks, lat)
	o.note("long-functions: %d files, k in %v, one caller, %.2fs", len(lat), longKs, wall.Seconds())
	o.note("latency_tail_ms is p%g (fixed by the %d files every run reaches) over N=%d files", ls.TailP, longTailN, ls.N)
	o.note("miss_latency_p50_ms: there is no cache, so every file is a miss and it equals latency_p50_ms")
	o.note("size_exponent: slope of log(median per-file time) on log(k)")
	o.note("capacity_rps: the single caller is the closed loop, so it equals files_per_s")
	return o, nil
}

// traceLong checks a fixed set of files untraced (the overhead
// reference), then replays them through the traced layers twice.
func traceLong(cfg config) (*outcome, error) {
	in := genLong(cfg.Seed, longTraced, longKs)
	o := &outcome{Metrics: map[string]float64{}}
	ctx := context.Background()
	az := stack.New()
	var untraced time.Duration
	for _, f := range in {
		d, _ := checkLongFile(ctx, az, f, o) // a failure is counted in o
		untraced += d
	}
	var passes [2]*replayer
	for pass := range passes {
		r := newReplayer()
		for i, f := range in {
			reports, err := r.file(ctx, int64(i+1), f.Name, f.Src)
			if err != nil {
				return nil, err
			}
			if pass == 0 {
				o.Attempted++
			}
			if err := checkLong(f, verdictsOfReports(reports)); err != nil {
				o.fail(1, "traced pass %d, %s: %v", pass+1, f.Name, err)
			}
		}
		passes[pass] = r
	}
	finishTraced(cfg, "long-functions", o, passes, untraced)
	o.note("trace.overhead: traced replay over untraced CheckSource time (%.2fs) on the same %d files", untraced.Seconds(), len(in))
	return o, nil
}
