package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/core"
	"repro/stack"
)

// The oracle compares against the generator's answers; a verdict
// changed in any of the ways a broken checker could change it must
// fail it.
func TestOracleRejectsMutatedVerdicts(t *testing.T) {
	ctx := context.Background()
	az := stack.New()
	var planted, clean *pkgInput
	for _, p := range genArchive(3, 30, 1, []int{4}) {
		p := p
		if len(p.Planted) > 0 && planted == nil {
			planted = &p
		}
		if len(p.Planted) == 0 && clean == nil {
			clean = &p
		}
	}
	check := func(p *pkgInput) []verdict {
		res, err := az.CheckSource(ctx, p.Name+".c", p.Files[0])
		if err != nil {
			t.Fatal(err)
		}
		return verdictsOfDiags(res.Diagnostics)
	}
	vs := check(planted)
	if err := checkPlanted(planted.Planted, vs); err != nil {
		t.Fatalf("true verdicts rejected: %v", err)
	}
	if err := checkPlanted(planted.Planted, nil); err == nil {
		t.Error("dropping every report passed")
	}
	mut := append([]verdict(nil), vs...)
	for i := range mut {
		mut[i].Kinds = []string{"no such kind"}
	}
	if err := checkPlanted(planted.Planted, mut); err == nil {
		t.Error("relabelling every UB kind passed")
	}
	if err := checkPlanted(clean.Planted, check(clean)); err != nil {
		t.Fatalf("clean package rejected: %v", err)
	}
	if err := checkPlanted(clean.Planted, vs); err == nil {
		t.Error("reports on a clean package passed")
	}

	in := genLong(1, 1, []int{3})[0]
	res, err := az.CheckSource(ctx, in.Name, in.Src)
	if err != nil {
		t.Fatal(err)
	}
	lv := verdictsOfDiags(res.Diagnostics)
	if err := checkLong(in, lv); err != nil {
		t.Fatalf("true long-function verdicts rejected: %v", err)
	}
	for name, mutate := range map[string]func([]verdict) []verdict{
		"report dropped":      func(v []verdict) []verdict { return v[1:] },
		"report duplicated":   func(v []verdict) []verdict { return append(v, v[0]) },
		"report moved":        func(v []verdict) []verdict { v[0].Line++; return v },
		"kind changed":        func(v []verdict) []verdict { v[0].Kinds = []string{core.UBDivByZero.String()}; return v },
		"turned into a simpl": func(v []verdict) []verdict { v[0].Elim = false; return v },
	} {
		mut := make([]verdict, len(lv))
		copy(mut, lv)
		if err := checkLong(in, mutate(mut)); err == nil {
			t.Errorf("%s: passed", name)
		}
	}
}

func TestGeneratorsAreSeeded(t *testing.T) {
	a, b := genArchive(5, 12, 2, archiveFuncs), genArchive(5, 12, 2, archiveFuncs)
	c := genArchive(6, 12, 2, archiveFuncs)
	same := func(x, y []pkgInput) bool {
		xj, _ := json.Marshal(x)
		yj, _ := json.Marshal(y)
		return string(xj) == string(yj)
	}
	if !same(a, b) || same(a, c) {
		t.Error("archive is not a function of the seed")
	}
	l1, l2 := genLong(5, 21, longKs), genLong(5, 21, longKs)
	counts := map[int]int{}
	for i := range l1 {
		if l1[i].Src != l2[i].Src {
			t.Fatal("long-function inputs are not a function of the seed")
		}
		counts[l1[i].K]++
	}
	for _, k := range longKs {
		if counts[k] != 21/len(longKs) {
			t.Errorf("k=%d drawn %d times in 21, want every k equally often", k, counts[k])
		}
	}
	m, m2 := newRequestMix(5, 960), newRequestMix(5, 960)
	fresh := map[string]bool{}
	freshFuncs := map[int]int{}
	openFresh := 0
	for i := 0; i < 2010; i++ {
		sp := m.spec(i)
		if sp.Src != m2.spec(i).Src {
			t.Fatal("request mix is not a function of the seed")
		}
		if sp.Fresh {
			if fresh[sp.Src] {
				t.Fatalf("fresh request %d repeats an earlier source", i)
			}
			fresh[sp.Src] = true
			freshFuncs[sp.Funcs]++
			if i < 960 {
				openFresh++
			}
		}
	}
	// The 960 open-loop requests hold 60 blocks of
	// serviceOpenFreshEvery and the 1,050 closed-loop ones 21 blocks of
	// serviceClosedFreshEvery: 81 fresh requests whatever the seed,
	// cycling through the three sizes 27 times.
	if openFresh != 960/serviceOpenFreshEvery || len(fresh) != 960/serviceOpenFreshEvery+1050/serviceClosedFreshEvery {
		t.Errorf("%d fresh requests in 2010 (%d in the open loop), want %d (%d)", len(fresh), openFresh,
			960/serviceOpenFreshEvery+1050/serviceClosedFreshEvery, 960/serviceOpenFreshEvery)
	}
	for _, f := range serviceFuncs {
		if n := freshFuncs[f]; n != 27 {
			t.Errorf("%d fresh requests of %d functions in 81, want 27", n, f)
		}
	}
}

// The program prints exactly the metrics BENCHMARK.json declares, with
// the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		json, src []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.src) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", c.name, len(c.json), len(c.src))
		}
		for _, d := range c.src {
			if j, ok := lookupDef(c.json, d.Name); !ok || j.Unit != d.Unit {
				t.Errorf("%s: %s [%s] not declared as such in BENCHMARK.json", c.name, d.Name, d.Unit)
			}
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
}
