package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/ir"
)

// replayer is the traced, single-goroutine replay of the checker's
// per-file pipeline (what stack.Analyzer.CheckSource and the sweep's
// workers run), with a span around every call into cc, ir and core.
// One replayer is one pass: its checker's Stats are the pass's counts.
type replayer struct {
	tr    *tracer
	chk   *core.Checker
	alloc map[string]uint64 // TotalAlloc bytes per layer
	ms    runtime.MemStats
}

func newReplayer() *replayer {
	return &replayer{tr: &tracer{}, chk: core.New(core.DefaultOptions), alloc: map[string]uint64{}}
}

func (r *replayer) totalAlloc() uint64 {
	runtime.ReadMemStats(&r.ms)
	return r.ms.TotalAlloc
}

// file replays one source under a root span "file" and returns its
// reports. Afterwards it times the SSA passes on a second build of the
// same source under a separate root span, "ssa-probe", whose time is
// not part of the traced run: the checker runs those passes inside
// CheckFunc, where the benchmark cannot put a span around them.
func (r *replayer) file(ctx context.Context, req int64, name, src string) ([]*core.Report, error) {
	var reports []*core.Report
	var ferr error
	r.tr.do("file", 0, req, func(root int64) {
		a0 := r.totalAlloc()
		var f *cc.File
		if r.tr.do("cc.parse", root, req, func(int64) { f, ferr = cc.Parse(name, src) }); ferr != nil {
			return
		}
		if r.tr.do("cc.typecheck", root, req, func(int64) { ferr = cc.Check(f) }); ferr != nil {
			return
		}
		a1 := r.totalAlloc()
		var p *ir.Program
		if r.tr.do("ir.build", root, req, func(int64) { p, ferr = ir.Build(f) }); ferr != nil {
			return
		}
		if core.DefaultOptions.Inline {
			r.tr.do("ir.inline", root, req, func(int64) { ir.InlineProgram(p, ir.DefaultInlineOptions) })
		}
		a2 := r.totalAlloc()
		r.alloc["cc"] += a1 - a0
		r.alloc["ir"] += a2 - a1
		for _, fn := range p.Funcs {
			a := r.totalAlloc()
			var rs []*core.Report
			r.tr.do("core.check", root, req, func(int64) { rs, ferr = r.chk.CheckFunc(ctx, fn) })
			r.alloc["core"] += r.totalAlloc() - a
			if ferr != nil {
				return
			}
			reports = append(reports, rs...)
		}
	})
	if ferr != nil {
		return nil, fmt.Errorf("%s: %w", name, ferr)
	}
	if core.DefaultOptions.SSA {
		if err := r.ssaProbe(req, name, src); err != nil {
			return nil, err
		}
	}
	return reports, nil
}

func (r *replayer) ssaProbe(req int64, name, src string) error {
	f, err := cc.Parse(name, src)
	if err == nil {
		err = cc.Check(f)
	}
	var p *ir.Program
	if err == nil {
		p, err = ir.Build(f)
	}
	if err != nil {
		return fmt.Errorf("%s: second build: %w", name, err)
	}
	if core.DefaultOptions.Inline {
		ir.InlineProgram(p, ir.DefaultInlineOptions)
	}
	r.tr.do("ssa-probe", 0, req, func(probe int64) {
		for _, fn := range p.Funcs {
			r.tr.do("ir.ssa", probe, req, func(int64) { ir.RunSSAPasses(fn, ir.ComputeDom(fn)) })
		}
	})
	return nil
}

// counts are the pass's deterministic work counts. Two passes over the
// same inputs must produce identical maps.
func (r *replayer) counts() map[string]int64 { return countsOf(r.chk.Stats()) }

// statFields maps count names to the checker counters behind them.
// core.Stats and stack.Stats both carry the counters under these field
// names, so countsOf reads either.
var statFields = map[string][]string{
	"functions":               {"Functions"},
	"ir.promoted_allocas":     {"PromotedAllocas"},
	"ir.gvn_hits":             {"GVNHits", "CrossBlockGVNHits"},
	"ir.sccp_folded_branches": {"SCCPFoldedBranches"},
	"ir.hoisted_ub_terms":     {"HoistedUBTerms"},
	"core.queries":            {"Queries"},
	"core.fast_paths":         {"FastPaths"},
	"core.timeouts":           {"Timeouts"},
	"core.dom_ordered_skips":  {"DomOrderedSkips"},
	"bv.terms_created":        {"TermsCreated"},
	"bv.rewrite_hits":         {"RewriteHits"},
	"bv.terms_blasted":        {"TermsBlasted"},
	"bv.cache_hits":           {"CacheHits"},
	"bv.blast_passes":         {"BlastPasses"},
	"sat.learnts_reused":      {"LearntsReused"},
	"sat.learnts_dropped":     {"LearntsDropped"},
}

func countsOf(stats any) map[string]int64 {
	v := reflect.ValueOf(stats)
	out := make(map[string]int64, len(statFields))
	for name, fields := range statFields {
		for _, f := range fields {
			out[name] += v.FieldByName(f).Int()
		}
	}
	return out
}

// countMetrics fills the count metrics and the ratios derived from
// them.
func countMetrics(m map[string]float64, c map[string]int64) {
	for k, v := range c {
		if _, ok := lookupDef(perLayer, k); ok {
			m[k] = float64(v)
		}
	}
	m["core.queries_per_func"] = ratio(c["core.queries"], c["functions"])
	m["bv.hashcons_hit_rate"] = ratio(c["bv.cache_hits"], c["bv.cache_hits"]+c["bv.terms_created"])
	m["bv.queries_per_blast"] = ratio(c["core.queries"], c["bv.blast_passes"])
}

// tracedWall is the summed duration of the pass's "file" spans: the
// traced counterpart of the untraced pipeline's busy time.
func (r *replayer) tracedWall() time.Duration {
	total, _ := layerTimes(r.tr.snapshot())
	return total["file"]
}

// layerMetrics fills the cc, ir, core, bv and sat per-layer metrics
// from the pass's spans and counts.
func (r *replayer) layerMetrics(m map[string]float64) {
	total, _ := layerTimes(r.tr.snapshot())
	for _, n := range []string{"cc.parse", "cc.typecheck", "ir.build", "ir.inline", "ir.ssa"} {
		m[n+"_ms"] = ms(total[n])
	}
	coreSelf := total["core.check"] - total["ir.ssa"]
	m["core.self_ms"] = ms(coreSelf)
	m["core.share"] = float64(coreSelf) / float64(total["file"])
	countMetrics(m, r.counts())
	for _, l := range []string{"cc", "ir", "core"} {
		m[l+".alloc_mb"] = float64(r.alloc[l]) / (1 << 20)
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func lookupDef(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// countMismatches lists the counts that differ between two passes.
func countMismatches(a, b map[string]int64) []string {
	var out []string
	for k, v := range a {
		if b[k] != v {
			out = append(out, fmt.Sprintf("%s: %d vs %d", k, v, b[k]))
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			out = append(out, fmt.Sprintf("%s: missing in first pass", k))
		}
	}
	sort.Strings(out)
	return out
}

// zeroUnreached sets every per-layer metric the workload did not fill
// to 0: the layer did no work on this workload.
func zeroUnreached(m map[string]float64) {
	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = 0
		}
	}
}
