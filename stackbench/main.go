// Command stackbench is the checker's benchmark. One invocation runs
// one workload with seeded inputs, checks every verdict against the
// generator's known answer, and prints its metrics; the last line of
// standard output is a JSON object with the keys correct, attempted,
// failed and metrics.
//
//	stackbench -workload archive -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it prints the end-to-end metrics of BENCHMARK.json;
// with -trace 1 it replays a fixed seeded input set with spans around
// every call into a layer and prints the per-layer metrics. run.sh
// builds it from the checkout's sources and passes -root and -out.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metricDef names a metric. Moves, for a per-layer metric, names the
// end-to-end metric and workload a change in that layer should move;
// the traced run prints it beside the value.
type metricDef struct{ Name, Unit, Moves string }

// endToEnd are the metrics a user sees; every workload reports each
// of them from its untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", ""},
	{"files_per_s", "1/s", ""},
	{"capacity_rps", "1/s", ""},
	{"latency_p50_ms", "ms", ""},
	{"latency_tail_ms", "ms", ""},
	{"miss_latency_p50_ms", "ms", ""},
	{"size_exponent", "1", ""},
	{"peak_rss_mb", "MB", ""},
}

const (
	movesFrontend = "files_per_s on archive, miss_latency_p50_ms on service; not long-functions"
	movesSSA      = "files_per_s on archive, directly and through core.queries"
	movesQueries  = "size_exponent and latency_* on long-functions"
	movesBlast    = "files_per_s on archive"
	movesSAT      = "latency_* on long-functions"
	movesAlloc    = "peak_rss_mb and files_per_s on archive"
	movesCache    = "latency_p50_ms and capacity_rps on service; nothing on archive or long-functions"
	movesService  = "latency_* and capacity_rps on service"
	movesHop      = "latency_p50_ms on service"
)

// perLayer are the traced run's metrics. Times are totals over the
// workload's fixed traced input set unless the unit says per call.
// A layer the workload does not reach reports 0.
var perLayer = []metricDef{
	{"cc.parse_ms", "ms", movesFrontend},
	{"cc.typecheck_ms", "ms", movesFrontend},
	{"ir.build_ms", "ms", movesFrontend},
	{"ir.inline_ms", "ms", movesFrontend},
	{"ir.ssa_ms", "ms", movesSSA},
	{"ir.promoted_allocas", "count", movesSSA},
	{"ir.gvn_hits", "count", movesSSA},
	{"ir.sccp_folded_branches", "count", movesSSA},
	{"ir.hoisted_ub_terms", "count", movesSSA},
	{"core.self_ms", "ms", "files_per_s on archive; latency_* and size_exponent on long-functions; miss_latency_p50_ms on service, nothing on its hits"},
	{"core.share", "ratio", "none: shows where time goes (most of archive and long-functions, little of service)"},
	{"core.queries", "count", movesQueries},
	{"core.queries_per_func", "ratio", movesQueries},
	{"core.fast_paths", "count", movesQueries},
	{"core.timeouts", "count", movesQueries},
	{"core.dom_ordered_skips", "count", movesQueries},
	{"bv.terms_created", "count", movesBlast},
	{"bv.rewrite_hits", "count", movesBlast},
	{"bv.terms_blasted", "count", movesBlast},
	{"bv.hashcons_hit_rate", "ratio", movesBlast},
	{"bv.queries_per_blast", "ratio", movesBlast},
	{"sat.learnts_reused", "count", movesSAT},
	{"sat.learnts_dropped", "count", movesSAT},
	{"cc.alloc_mb", "MB", movesAlloc},
	{"ir.alloc_mb", "MB", movesAlloc},
	{"core.alloc_mb", "MB", movesAlloc},
	{"corpus.build_busy_s", "s", movesBlast},
	{"corpus.check_busy_s", "s", movesBlast},
	{"corpus.worker_util", "ratio", movesBlast},
	{"stack.analyze_ms", "ms", "miss_latency_p50_ms and capacity_rps on service"},
	{"cache.get_us", "us", movesCache},
	{"cache.put_us", "us", movesCache},
	{"cache.hit_share", "ratio", movesCache},
	{"cache.evictions", "count", movesCache},
	{"service.handle_ms", "ms", movesService},
	{"service.refused", "count", movesService},
	{"client.overhead_ms", "ms", movesHop},
	{"shard.dispatch_ms", "ms", movesHop},
	{"loadgen.lag_ms", "ms", "none: validity check on service; a large lag makes its latencies suspect"},
	{"trace.overhead", "ratio", "none: traced over untraced time on the same inputs"},
	{"trace.count_mismatches", "count", "none: must be 0; counts that differ between two traced passes"},
}

// config is what every workload receives.
type config struct {
	Seed    int64
	Seconds int
	Out     string // directory for build outputs and span files
	Nproc   int
}

// outcome is one workload run's result before printing.
type outcome struct {
	Attempted, Failed int
	Metrics           map[string]float64
	// Notes are human-readable lines printed before the result, such
	// as the percentile the tail was taken at.
	Notes []string
	// Errors describe each failed operation (a few are printed).
	Errors []string
}

// fail counts n failed operations under one error description.
func (o *outcome) fail(n int, format string, args ...any) {
	o.Failed += n
	if len(o.Errors) < 20 {
		o.Errors = append(o.Errors, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

type workload struct {
	run, traced func(config) (*outcome, error)
	// workers and rate are recorded in the environment line.
	workers func(config) int
	rate    float64
}

var workloads = map[string]workload{
	"archive":        {run: runArchive, traced: traceArchive, workers: func(c config) int { return c.Nproc }},
	"long-functions": {run: runLong, traced: traceLong, workers: func(config) int { return 1 }},
	"service":        {run: runService, traced: traceService, workers: func(c config) int { return c.Nproc }, rate: serviceRate},
}

func main() {
	name := flag.String("workload", "", "workload: archive, long-functions or service")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Int("seconds", 20, "length of the measured phase")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	root := flag.String("root", ".", "repository root, for the environment record")
	out := flag.String("out", ".bench_build", "directory for span files")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "stackbench: need -workload archive|long-functions|service, -seconds >= 1, -trace 0|1\n")
		os.Exit(2)
	}
	cfg := config{Seed: *seed, Seconds: *seconds, Out: *out, Nproc: runtime.NumCPU()}
	env := environment(*root, cfg, *name, w)
	envJSON, _ := json.Marshal(env) // a map of strings and numbers always encodes
	fmt.Printf("env %s\n", envJSON)

	run, defs := w.run, endToEnd
	if *trace == 1 {
		run, defs = w.traced, perLayer
	}
	o, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stackbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, o, defs); err != nil {
		fmt.Fprintf(os.Stderr, "stackbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
}

// printResult prints the notes, one line per metric, and the final
// JSON result line. A metric missing from o, or not finite, is a bug
// in the workload and fails the run.
func printResult(w io.Writer, o *outcome, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := map[string]value{}
	for _, d := range defs {
		v, ok := o.Metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s missing or not finite (%v)", d.Name, v)
		}
		vals[d.Name] = value{v, d.Unit}
	}
	bw := bufio.NewWriter(w)
	for _, n := range o.Notes {
		fmt.Fprintln(bw, n)
	}
	for _, e := range o.Errors {
		fmt.Fprintf(bw, "error: %s\n", e)
	}
	share := 0.0
	if o.Attempted > 0 {
		share = float64(o.Failed) / float64(o.Attempted)
	}
	fmt.Fprintf(bw, "failed_share %.6f (%d of %d)\n", share, o.Failed, o.Attempted)
	for _, d := range defs {
		fmt.Fprintf(bw, "%-26s %14.6f %-5s %s\n", d.Name, vals[d.Name].Value, d.Unit, d.Moves)
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.Failed == 0 && o.Attempted > 0, o.Attempted, o.Failed, vals}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\n", line)
	return bw.Flush()
}

// environment records what a result depends on besides the code.
func environment(root string, cfg config, name string, w workload) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, mod string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				mod = s.Value
			}
		}
		if rev != "" {
			commit = rev
			if mod == "true" {
				commit += "+modified"
			}
		}
	}
	return map[string]any{
		"workload":      name,
		"seed":          cfg.Seed,
		"seconds":       cfg.Seconds,
		"nproc":         cfg.Nproc,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        commit,
		"source_sha256": sourceDigest(root),
		"workers":       w.workers(cfg),
		"offered_rps":   w.rate,
	}
}

// sourceDigest hashes the checker's Go sources and go.mod, naming the
// code under test where no VCS metadata is available.
func sourceDigest(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "unavailable"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unavailable"
		}
		rel, _ := filepath.Rel(root, p) // p is under root by construction
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// timedSetup runs setup at least setupReps times and until
// setupMinTotal has passed, tearing down all but the last, and returns
// the last setup's state and the median set-up time in seconds. A set-up
// of a few milliseconds is repeated hundreds of times, so its median is
// as steady as that of a set-up of seconds.
func timedSetup[T any](setup func() (T, error), teardown func(T)) (T, float64, error) {
	var st T
	var secs []float64
	start := time.Now()
	for i := 0; i < setupReps || (time.Since(start) < setupMinTotal && i < setupMaxReps); i++ {
		if i > 0 {
			teardown(st)
		}
		t0 := time.Now()
		var err error
		st, err = setup()
		if err != nil {
			return st, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	// Collect the torn-down set-ups now, not during the measured phase.
	runtime.GC()
	return st, median(secs), nil
}

const (
	setupReps     = 5
	setupMaxReps  = 500
	setupMinTotal = 3 * time.Second
)
