package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/stack"
)

// unstableShare is the share of packages with unstable code in the
// paper's Debian sweep (3,471 of 8,575, §6.5).
const unstableShare = 0.405

// pkgInput is one generated package and its known answer: the UB kinds
// the generator planted in it. Every file of a package has Funcs
// functions.
type pkgInput struct {
	stack.Package
	Funcs   int
	Planted []string // UB kind names, sorted; empty for a clean package
}

// genArchive generates n packages with the paper's unstable share and
// Fig. 18 bug mix. Package i has funcSizes[i%len(funcSizes)] functions
// per file, so per-file cost can be fitted against function count.
func genArchive(seed int64, n, filesPerPkg int, funcSizes []int) []pkgInput {
	subs := make([][]corpus.Package, len(funcSizes))
	per := (n + len(funcSizes) - 1) / len(funcSizes)
	for i, f := range funcSizes {
		subs[i] = corpus.GenerateArchive(corpus.ArchiveConfig{
			Packages:         per,
			FilesPerPackage:  filesPerPkg,
			FuncsPerFile:     f,
			UnstableFraction: unstableShare,
			Seed:             seed*7919 + int64(i),
		})
	}
	out := make([]pkgInput, n)
	for i := range out {
		cp := subs[i%len(funcSizes)][i/len(funcSizes)]
		var planted []string
		for k, c := range cp.Planted {
			if c > 0 {
				planted = append(planted, k.String())
			}
		}
		sort.Strings(planted)
		out[i] = pkgInput{
			Package: stack.Package{Name: fmt.Sprintf("p%05d", i), Files: cp.Files},
			Funcs:   funcSizes[i%len(funcSizes)],
			Planted: planted,
		}
	}
	return out
}

// longInput is one long-function file: for j = 1..k, an unstable
// overflow check x + j < x followed by a division by x - j. Its known
// answer is one elimination report per check line, each blamed on
// signed overflow.
type longInput struct {
	K       int
	Name    string
	Src     string
	IfLines []int // 1-based lines of the x + c < x checks
}

// genLong returns n long-function files. The k values cycle through
// seeded permutations of ks, so every k is equally frequent
// over a run whatever the seed; the seed picks the order. The file for
// a given k is fixed: seeded constants would change the query count
// per file and, with it, the figures from seed to seed.
func genLong(seed int64, n int, ks []int) []longInput {
	rng := rand.New(rand.NewSource(seed))
	var order []int
	for len(order) < n {
		for _, j := range rng.Perm(len(ks)) {
			order = append(order, ks[j])
		}
	}
	out := make([]longInput, n)
	for i := range out {
		k := order[i]
		var b strings.Builder
		b.WriteString("int f(int x) {\n  int s = 0;\n")
		line := 3
		var ifs []int
		for j := 1; j <= k; j++ {
			fmt.Fprintf(&b, "  if (x + %d < x) s++;\n  s = s / (x - %d);\n", j, j)
			ifs = append(ifs, line)
			line += 2
		}
		b.WriteString("  return s;\n}\n")
		out[i] = longInput{K: k, Name: fmt.Sprintf("long%04d_k%d.c", i, k), Src: b.String(), IfLines: ifs}
	}
	return out
}

// verdict is one report reduced to what the oracle checks.
type verdict struct {
	Elim  bool
	Line  int
	Kinds []string
}

func verdictsOfDiags(ds []stack.Diagnostic) []verdict {
	out := make([]verdict, len(ds))
	for i, d := range ds {
		v := verdict{Elim: d.Code == stack.RuleElimination, Line: d.Span.Line}
		for _, u := range d.UB {
			v.Kinds = append(v.Kinds, u.Kind)
		}
		out[i] = v
	}
	return out
}

func verdictsOfReports(rs []*core.Report) []verdict {
	out := make([]verdict, len(rs))
	for i, r := range rs {
		v := verdict{Elim: r.Algo == core.AlgoElimination, Line: r.Pos.Line}
		for _, u := range r.UBConds {
			v.Kinds = append(v.Kinds, u.Kind.String())
		}
		out[i] = v
	}
	return out
}

// checkPlanted is the archive and service oracle: a unit with planted
// bugs must be reported for every planted UB kind, and a unit without
// plants must draw no report at all.
func checkPlanted(planted []string, vs []verdict) error {
	if len(planted) == 0 {
		if len(vs) > 0 {
			return fmt.Errorf("%d report(s) on a unit with no planted bug", len(vs))
		}
		return nil
	}
	seen := map[string]bool{}
	for _, v := range vs {
		for _, k := range v.Kinds {
			seen[k] = true
		}
	}
	for _, k := range planted {
		if !seen[k] {
			return fmt.Errorf("planted %s not reported", k)
		}
	}
	return nil
}

// checkLong is the long-function oracle: exactly one elimination
// report per check line and none elsewhere, each with signed overflow
// in its UB set. Which overflow the set names is not checked.
func checkLong(in longInput, vs []verdict) error {
	want := map[int]bool{}
	for _, l := range in.IfLines {
		want[l] = true
	}
	got := map[int]int{}
	for _, v := range vs {
		if !v.Elim {
			continue
		}
		if !want[v.Line] {
			return fmt.Errorf("elimination report on line %d, which holds no check", v.Line)
		}
		got[v.Line]++
		signed := false
		for _, k := range v.Kinds {
			signed = signed || k == core.UBSignedOverflow.String()
		}
		if !signed {
			return fmt.Errorf("line %d: UB set %v lacks %s", v.Line, v.Kinds, core.UBSignedOverflow)
		}
	}
	for _, l := range in.IfLines {
		if got[l] != 1 {
			return fmt.Errorf("line %d: %d elimination report(s), want 1", l, got[l])
		}
	}
	return nil
}
