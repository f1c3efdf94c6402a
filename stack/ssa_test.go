package stack

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// ssaRichSrc has an address-taken local and duplicate subexpressions,
// so the SSA pass stack has real work to do on top of the unstable
// pointer-overflow check.
const ssaRichSrc = `
int walk(char *buf, char *buf_end, unsigned int len) {
	int n = 0;
	int *p = &n;
	*p = (int)len * 2;
	*p = (int)len * 2 + 1;
	if (buf + len >= buf_end)
		return -1;
	if (buf + len < buf)
		return -1; /* deleted by gcc: pointer overflow is undefined */
	return *p;
}
`

// sccpSrc guards a dead region with a loop-carried constant: only
// SCCP's optimistic meet over executable edges proves flag stays 0,
// so the pass sharpens beyond the rewrite layer.
const sccpSrc = `
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

// TestWithSSAIdenticalDiagnostics: SSA is the default; turning it off
// (the legacy reference pipeline) must not change any diagnostic —
// same files, same codes, same rendered text.
func TestWithSSAIdenticalDiagnostics(t *testing.T) {
	srcs := []Source{
		{Name: "fig1.c", Text: fig1Src},
		{Name: "div.c", Text: divSrc},
		{Name: "ssa.c", Text: ssaRichSrc},
	}
	for _, src := range srcs {
		legacy, err := New(WithSSA(false)).CheckSource(context.Background(), src.Name, src.Text)
		if err != nil {
			t.Fatalf("%s legacy: %v", src.Name, err)
		}
		ssa, err := New().CheckSource(context.Background(), src.Name, src.Text)
		if err != nil {
			t.Fatalf("%s: %v", src.Name, err)
		}
		if !reflect.DeepEqual(legacy.Diagnostics, ssa.Diagnostics) {
			t.Errorf("%s: diagnostics differ between WithSSA(false) and the default:\n legacy: %+v\n ssa:    %+v",
				src.Name, legacy.Diagnostics, ssa.Diagnostics)
		}
		if len(legacy.Diagnostics) == 0 {
			t.Errorf("%s: no diagnostics; comparison is vacuous", src.Name)
		}
	}
}

// TestWithSSAStatsTrailer: pass counters appear in the JSON stats by
// default and vanish under WithSSA(false) — with omitempty zeros, the
// legacy trailer bytes are untouched (the golden-JSON tests depend on
// that).
func TestWithSSAStatsTrailer(t *testing.T) {
	ssa, err := New().CheckSource(context.Background(), "ssa.c", ssaRichSrc)
	if err != nil {
		t.Fatal(err)
	}
	if ssa.Stats.GVNHits == 0 {
		t.Error("GVNHits = 0 on a source with duplicate computations")
	}
	if ssa.Stats.PromotedAllocas == 0 {
		t.Error("PromotedAllocas = 0 on a source with an address-taken local")
	}
	if ssa.Stats.EliminatedStores == 0 {
		t.Error("EliminatedStores = 0 on a source with an overwritten store")
	}
	if ssa.Stats.DomOrderedSkips == 0 {
		t.Error("DomOrderedSkips = 0 on an acyclic function with solver queries")
	}
	if ssa.Stats.SSASharpened == 0 {
		t.Error("SSASharpened = 0 though promotion fired")
	}

	sharp, err := New().CheckSource(context.Background(), "sccp.c", sccpSrc)
	if err != nil {
		t.Fatal(err)
	}
	if raw, _ := json.Marshal(sharp.Stats); !strings.Contains(string(raw), `"sccpSharpened":`) {
		t.Errorf("default stats trailer lacks sccpSharpened on a sharpening source: %s", raw)
	}

	legacy, err := New(WithSSA(false)).CheckSource(context.Background(), "ssa.c", ssaRichSrc)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(legacy.Stats)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"promotedAllocas", "eliminatedStores", "gvnHits",
		"sccpFoldedValues", "sccpFoldedBranches", "sccpUnreachableBlocks",
		"crossBlockGvnHits", "hoistedUbTerms", "domOrderedSkips",
		"ssaSharpened", "sccpSharpened",
	} {
		if strings.Contains(string(raw), key) {
			t.Errorf("WithSSA(false) stats trailer leaks %q: %s", key, raw)
		}
	}
}

// TestSharpeningCountersReachSweeps: the two sharpening counters reach
// the per-source stats and both sweep results — the public
// stack.SweepResult and the internal corpus.SweepResult behind
// Format(). SSASharpened is the key the SSA contract rests on.
func TestSharpeningCountersReachSweeps(t *testing.T) {
	for _, tc := range []struct {
		counter, src string
		get          func(Stats) int64
	}{
		{"SSASharpened", ssaRichSrc, func(s Stats) int64 { return s.SSASharpened }},
		{"SCCPSharpened", sccpSrc, func(s Stats) int64 { return s.SCCPSharpened }},
	} {
		az := New(WithWorkers(2))
		one, err := az.CheckSource(context.Background(), "t.c", tc.src)
		if err != nil {
			t.Fatal(err)
		}
		if tc.get(one.Stats) == 0 {
			t.Errorf("%s = 0 in CheckSource stats", tc.counter)
		}
		res, err := az.Sweep(context.Background(), []Package{{Name: "p", Files: []string{tc.src, tc.src}}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := tc.get(res.Stats), 2*tc.get(one.Stats); got != want {
			t.Errorf("%s = %d in stack.SweepResult, want %d", tc.counter, got, want)
		}
		if got, want := tc.get(res.inner.Counters), 2*tc.get(one.Stats); got != want {
			t.Errorf("%s = %d in corpus.SweepResult, want %d", tc.counter, got, want)
		}
	}
}
