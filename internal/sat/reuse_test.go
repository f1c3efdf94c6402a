package sat

// Soundness tests for answering a query from the last model. A
// long-lived solver runs a script of NewVar, AddClause and
// SolveAssuming steps; each query is also decided by a fresh solver
// over the same clauses. Verdicts must agree, every Sat model of the
// long-lived solver must satisfy every clause and assumption, and
// every failed-assumption core must be a subset of the assumptions.

import (
	"math/rand"
	"testing"
)

// scriptReader hands out script bytes, then zeros once they run out.
type scriptReader struct {
	data []byte
	pos  int
}

func (r *scriptReader) next() int {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return int(b)
}

// runReuseScript decodes data into a solver script, checks every query
// as described above, and returns how many queries the long-lived
// solver answered from its last model.
func runReuseScript(t *testing.T, data []byte) int64 {
	t.Helper()
	r := &scriptReader{data: data}
	s := New()
	nVars := 3 + r.next()%6
	for i := 0; i < nVars; i++ {
		s.NewVar()
	}
	var cnf [][]Lit
	randLit := func() Lit { return NewLit(Var(r.next()%nVars), r.next()%2 == 1) }
	lastSat := false
	for step := 0; step < 64 && r.pos < len(r.data); step++ {
		switch op := r.next() % 8; {
		case op == 0:
			s.NewVar()
			nVars++
		case op <= 3:
			cl := make([]Lit, 2+r.next()%3)
			for i := range cl {
				cl[i] = randLit()
			}
			cnf = append(cnf, cl)
			s.AddClause(cl...)
		default:
			// Half the queries draw assumptions from the last model,
			// the case reuse is built for; the rest are arbitrary.
			fromModel := op >= 6 && lastSat
			as := make([]Lit, r.next()%4)
			for i := range as {
				as[i] = randLit()
				if fromModel {
					as[i] = NewLit(as[i].Var(), !s.ModelValue(as[i].Var()))
				}
			}
			got := s.SolveAssuming(as...)
			fresh := New()
			for i := 0; i < nVars; i++ {
				fresh.NewVar()
			}
			for _, cl := range cnf {
				fresh.AddClause(cl...)
			}
			if want := fresh.SolveAssuming(as...); got != want {
				t.Fatalf("step %d: long-lived solver says %v, fresh solver %v (assumptions %v, cnf %v)", step, got, want, as, cnf)
			}
			lastSat = got == Sat
			checkQuery(t, s, step, got, as, cnf)
		}
	}
	return s.ModelReuses
}

// checkQuery checks one verdict of s: a Sat model satisfies cnf and
// the assumptions and leaves no failed assumptions behind; an Unsat
// core lists only assumptions.
func checkQuery(t *testing.T, s *Solver, step int, got Status, as []Lit, cnf [][]Lit) {
	t.Helper()
	holds := func(l Lit) bool { return s.ModelValue(l.Var()) != l.Neg() }
	switch got {
	case Sat:
		for _, cl := range cnf {
			ok := false
			for _, l := range cl {
				ok = ok || holds(l)
			}
			if !ok {
				t.Fatalf("step %d: model violates clause %v", step, cl)
			}
		}
		for _, a := range as {
			if !holds(a) {
				t.Fatalf("step %d: model violates assumption %v", step, a)
			}
		}
		if core := s.FailedAssumptions(); len(core) != 0 {
			t.Fatalf("step %d: Sat verdict carries failed assumptions %v", step, core)
		}
	case Unsat:
		for _, l := range s.FailedAssumptions() {
			found := false
			for _, a := range as {
				found = found || a == l
			}
			if !found {
				t.Fatalf("step %d: failed assumption %v is not among %v", step, l, as)
			}
		}
	default:
		t.Fatalf("step %d: %v on a tiny instance", step, got)
	}
}

// TestModelReuseDifferential runs seeded random scripts through the
// long-lived-vs-fresh comparison and requires that reuse actually fired.
func TestModelReuseDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var reuses int64
	for iter := 0; iter < 400; iter++ {
		data := make([]byte, 40+rng.Intn(200))
		rng.Read(data)
		reuses += runReuseScript(t, data)
	}
	if reuses == 0 {
		t.Fatal("no query was answered from the last model; the test exercises nothing")
	}
	t.Logf("%d queries answered from the last model", reuses)
}

// FuzzModelReuse is the fuzzing form of TestModelReuseDifferential: the
// input bytes are the solver script.
func FuzzModelReuse(f *testing.F) {
	f.Add([]byte{3, 1, 0, 1, 1, 1, 2, 2, 1, 0, 4, 6, 1, 0, 0, 7, 2, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		runReuseScript(t, data)
	})
}

// TestModelReuseDisabledByNewClauseOrVar: a clause or variable added
// after a Sat must keep the next query from being answered by the old
// model, and a reused Sat must not surface the core of an earlier
// Unsat.
func TestModelReuseDisabledByNewClauseOrVar(t *testing.T) {
	s := New()
	v := lits(s, 2)
	a, b := v[0], v[1]
	s.AddClause(a, b)
	if s.Solve() != Sat {
		t.Fatal("a ∨ b: want sat")
	}
	// Whichever of a, b the model made true, assuming it again is
	// answered from the model.
	x := a
	if !s.ModelValue(a.Var()) {
		x = b
	}
	if s.Solve(x) != Sat || s.ModelReuses != 1 {
		t.Fatalf("repeat of a model literal: reuses %d, want 1", s.ModelReuses)
	}

	// Unsat under assumptions leaves a core; a following reused Sat
	// must not report it.
	if s.Solve(a.Not(), b.Not()) != Unsat || len(s.FailedAssumptions()) == 0 {
		t.Fatal("¬a ∧ ¬b: want unsat with a core")
	}
	if s.Solve(x) != Sat || s.ModelReuses != 2 {
		t.Fatalf("second repeat: reuses %d, want 2", s.ModelReuses)
	}
	if core := s.FailedAssumptions(); len(core) != 0 {
		t.Fatalf("reused Sat surfaced stale core %v", core)
	}

	// A clause falsified by the old model: the old model would still
	// say Sat for x, but x is now impossible.
	s.AddClause(x.Not())
	if got := s.Solve(x); got != Unsat {
		t.Fatalf("after adding ¬x, assuming x: %v, want unsat", got)
	}
	if s.ModelReuses != 2 {
		t.Fatalf("reuse fired after AddClause: %d reuses", s.ModelReuses)
	}

	// A fresh variable is not covered by the old model.
	if s.Solve() != Sat {
		t.Fatal("want sat")
	}
	c := NewLit(s.NewVar(), false)
	if s.Solve(c) != Sat || !s.ModelValue(c.Var()) {
		t.Fatal("assuming a fresh variable: want sat with it true")
	}
	if s.ModelReuses != 2 {
		t.Fatalf("reuse fired after NewVar: %d reuses", s.ModelReuses)
	}
}
