package core

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// longShapeSource is a function of k unstable overflow checks, each
// followed by a division: `if (x + j < x) s++; s = s / (x - j);` for
// j = 1..k. It is the shape whose per-function cost grows with k, and
// the check on line 3 + 2(j-1) is the one for x + j.
func longShapeSource(k int) string {
	var b strings.Builder
	b.WriteString("int f(int x) {\n  int s = 0;\n")
	for j := 1; j <= k; j++ {
		fmt.Fprintf(&b, "  if (x + %d < x) s++;\n  s = s / (x - %d);\n", j, j)
	}
	b.WriteString("  return s;\n}\n")
	return b.String()
}

// verdictOf reduces a report to its verdict: algorithm, line, and the
// distinct UB kinds of its set. Which condition the set names is left
// out on purpose (see TestLongShapeVerdictIdentity).
func verdictOf(r *Report) string {
	kinds := map[string]bool{}
	for _, u := range r.UBConds {
		kinds[u.Kind.String()] = true
	}
	var ks []string
	for k := range kinds {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return fmt.Sprintf("%s@%d%v", r.Algo, r.Pos.Line, ks)
}

// TestLongShapeVerdictIdentity: on the long shape, for k = 1..8, the
// default pipeline, ScratchSolve, and SSA=false eliminate exactly the k
// overflow checks, each for signed overflow. Only verdicts are
// compared: which x + j a UB set blames on this shape depends on query
// history (the cores and models earlier queries left behind), so it
// differs between these modes and moves whenever the solver's
// encoding or search changes.
func TestLongShapeVerdictIdentity(t *testing.T) {
	modes := []struct {
		name string
		set  func(*Options)
	}{
		{"default", func(*Options) {}},
		{"scratch", func(o *Options) { o.ScratchSolve = true }},
		{"legacy", func(o *Options) { o.SSA = false }},
	}
	for k := 1; k <= 8; k++ {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			t.Parallel()
			var want []string
			for j := 1; j <= k; j++ {
				want = append(want, fmt.Sprintf("%s@%d[%s]", AlgoElimination, 3+2*(j-1), UBSignedOverflow))
			}
			src := longShapeSource(k)
			for _, m := range modes {
				o := DefaultOptions
				o.Timeout = 0 // verdicts must not depend on the machine's speed
				m.set(&o)
				var got []string
				for _, r := range analyze(t, src, o) {
					got = append(got, verdictOf(r))
				}
				sort.Strings(got)
				sort.Strings(want)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: verdicts %v, want %v", m.name, got, want)
				}
			}
		})
	}
}
