package main

import (
	"context"
	"fmt"
	"time"

	"repro/stack"
)

// The archive workload is the paper's §6.5 Debian sweep: a cold
// Analyzer.Sweep, one worker per CPU, no cache. Many small functions;
// blasting and SAT dominate, and the frontend, IR and SSA passes are a
// small share. It bypasses the cache, service and dispatch layers, so a
// change there must read unchanged here.
const (
	archivePkgs      = 2000 // 6,000 files: more than a run sweeps, so no file repeats
	archiveFiles     = 3    // files per package
	archiveChunkPkgs = 20   // packages per timed Sweep call
	archiveTracePkgs = 120  // 360 files in the traced replay
	// archiveTailN is the file count every run reaches, past the
	// deadline if need be. It fixes the tail at p99 (10 files beyond).
	archiveTailN = 1000
)

// archiveFuncs are the functions per file, cycled over packages, so
// per-file cost can be fitted against function count.
var archiveFuncs = []int{3, 6, 12}

type fileTime struct {
	Pkg  string
	Time time.Duration
}

// collectSink keeps each file's verdicts and time; the sweep's
// emitter calls it from one goroutine.
type collectSink struct {
	verdicts map[string][]verdict // by package
	files    []fileTime
}

func (s *collectSink) Emit(fr stack.FileResult) error {
	s.verdicts[fr.Package] = append(s.verdicts[fr.Package], verdictsOfDiags(fr.Diagnostics)...)
	s.files = append(s.files, fileTime{fr.Package, fr.BuildTime + fr.AnalysisTime})
	return nil
}

func (s *collectSink) Close() error { return nil }

// sweep runs one cold sweep over pkgs and checks every package's
// verdicts. It returns the sweep result (nil on error), per-file
// times, and the wall time.
func sweep(ctx context.Context, az *stack.Analyzer, pkgs []pkgInput, o *outcome) (*stack.SweepResult, []fileTime, time.Duration) {
	sps := make([]stack.Package, len(pkgs))
	nfiles := 0
	for i, p := range pkgs {
		sps[i] = p.Package
		nfiles += len(p.Files)
	}
	sink := &collectSink{verdicts: map[string][]verdict{}}
	t0 := time.Now()
	res, err := az.Sweep(ctx, sps, sink)
	wall := time.Since(t0)
	o.Attempted += nfiles
	if err != nil {
		o.fail(nfiles, "sweep of %s..%s: %v", pkgs[0].Name, pkgs[len(pkgs)-1].Name, err)
		return nil, nil, wall
	}
	for _, p := range pkgs {
		if err := checkPlanted(p.Planted, sink.verdicts[p.Name]); err != nil {
			o.fail(len(p.Files), "package %s: %v", p.Name, err)
		}
	}
	if res.Timeouts > 0 {
		o.fail(int(res.Timeouts), "%d query timeout(s) in sweep of %s..", res.Timeouts, pkgs[0].Name)
	}
	return res, sink.files, wall
}

func runArchive(cfg config) (*outcome, error) {
	type state struct {
		pkgs []pkgInput
		az   *stack.Analyzer
	}
	st, setupS, err := timedSetup(func() (state, error) {
		return state{
			pkgs: genArchive(cfg.Seed, archivePkgs, archiveFiles, archiveFuncs),
			az:   stack.New(stack.WithWorkers(cfg.Nproc)),
		}, nil
	}, func(state) {})
	if err != nil {
		return nil, err
	}
	funcs := map[string]int{}
	for _, p := range st.pkgs {
		funcs[p.Name] = p.Funcs
	}
	o := &outcome{Metrics: map[string]float64{"setup_s": setupS}}
	ctx := context.Background()
	var rates, lat, size []float64
	nfiles := 0
	rss := startRSSWindows()
	deadline := time.Now().Add(time.Duration(cfg.Seconds) * time.Second)
	for i := 0; o.Attempted < archiveTailN || time.Now().Before(deadline); i++ {
		lo := (i * archiveChunkPkgs) % len(st.pkgs)
		_, files, w := sweep(ctx, st.az, st.pkgs[lo:lo+archiveChunkPkgs], o)
		rates = append(rates, float64(len(files))/w.Seconds())
		for _, f := range files {
			nfiles++
			lat = append(lat, ms(f.Time))
			size = append(size, float64(funcs[f.Pkg]))
		}
	}
	o.Metrics["peak_rss_mb"] = rss.finish(o)
	rate := median(rates)
	o.Metrics["files_per_s"] = rate
	o.Metrics["capacity_rps"] = rate
	ls := summarizeLatency(lat, archiveTailN)
	o.Metrics["latency_p50_ms"] = ls.P50
	o.Metrics["miss_latency_p50_ms"] = ls.P50
	o.Metrics["latency_tail_ms"] = ls.Tail
	o.Metrics["size_exponent"] = sizeExponent(size, lat)
	o.note("archive: %d files in %d sweeps of %d packages, %d workers; files_per_s is the median sweep's rate", nfiles, len(rates), archiveChunkPkgs, cfg.Nproc)
	o.note("latency is per-file build+analysis time inside the sweep")
	o.note("latency_tail_ms is p%g (fixed by the %d files every run reaches) over N=%d files", ls.TailP, archiveTailN, ls.N)
	o.note("miss_latency_p50_ms: the sweep has no cache, so every file is a miss and it equals latency_p50_ms")
	o.note("size_exponent: slope of log(median per-file time) on log(functions per file), functions in %v", archiveFuncs)
	o.note("capacity_rps: the sweep is the closed loop (%d workers), so it equals files_per_s", cfg.Nproc)
	return o, nil
}

// traceArchive sweeps a fixed slice of the archive untraced, for the
// corpus metrics and as the overhead reference, then replays the same
// files serially through the traced layers, twice, to check that the
// counts repeat.
func traceArchive(cfg config) (*outcome, error) {
	pkgs := genArchive(cfg.Seed, archivePkgs, archiveFiles, archiveFuncs)[:archiveTracePkgs]
	o := &outcome{Metrics: map[string]float64{}}
	ctx := context.Background()
	res, _, wall := sweep(ctx, stack.New(stack.WithWorkers(cfg.Nproc)), pkgs, o)
	if res == nil {
		return nil, fmt.Errorf("untraced sweep failed: %v", o.Errors)
	}
	busy := res.BuildTime + res.AnalysisTime
	o.Metrics["corpus.build_busy_s"] = res.BuildTime.Seconds()
	o.Metrics["corpus.check_busy_s"] = res.AnalysisTime.Seconds()
	o.Metrics["corpus.worker_util"] = busy.Seconds() / (wall.Seconds() * float64(cfg.Nproc))

	var passes [2]*replayer
	for pass := range passes {
		r := newReplayer()
		req := int64(0)
		for _, p := range pkgs {
			var vs []verdict
			for fi, src := range p.Files {
				req++
				reports, err := r.file(ctx, req, fmt.Sprintf("%s/f%d.c", p.Name, fi), src)
				if err != nil {
					return nil, err
				}
				vs = append(vs, verdictsOfReports(reports)...)
			}
			if pass == 0 {
				o.Attempted += len(p.Files)
			}
			if err := checkPlanted(p.Planted, vs); err != nil {
				o.fail(len(p.Files), "traced pass %d, package %s: %v", pass+1, p.Name, err)
			}
		}
		passes[pass] = r
	}
	finishTraced(cfg, "archive", o, passes, busy)
	o.note("trace.overhead: traced serial replay over the untraced sweep's build+check busy time (%.2fs)", busy.Seconds())
	return o, nil
}

// finishTraced reports the second pass's layer metrics, checks that
// both passes counted the same work, and writes the spans out.
func finishTraced(cfg config, name string, o *outcome, passes [2]*replayer, untraced time.Duration) {
	r := passes[1]
	r.layerMetrics(o.Metrics)
	o.Metrics["trace.overhead"] = r.tracedWall().Seconds() / untraced.Seconds()
	mis := countMismatches(passes[0].counts(), r.counts())
	o.Metrics["trace.count_mismatches"] = float64(len(mis))
	for _, m := range mis {
		o.fail(1, "count differs between two traced passes: %s", m)
	}
	zeroUnreached(o.Metrics)
	saveSpans(cfg, name, r.tr, o)
}

func saveSpans(cfg config, name string, tr *tracer, o *outcome) {
	path := fmt.Sprintf("%s/spans-%s-seed%d.jsonl", cfg.Out, name, cfg.Seed)
	if err := writeSpans(path, tr.snapshot()); err != nil {
		o.note("spans not written: %v", err)
		return
	}
	o.note("spans: %s", path)
}
