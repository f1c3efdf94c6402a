package bv

import (
	"context"
	"testing"
	"time"
)

// TestSessionIncrementalAmortizesBlasting: a query sequence over one
// shared encoding must blast each term once in incremental mode, while
// scratch mode re-encodes per query — with identical verdicts.
func TestSessionIncrementalAmortizesBlasting(t *testing.T) {
	bld := NewBuilder()
	x := bld.Var("x", 8)
	y := bld.Var("y", 8)
	sum := bld.Add(x, y)
	// A query pair in the checker's shape: a reachability-style predicate,
	// then a Δ-style refinement over the same encoding, then masking
	// variants that reuse every term.
	q1 := bld.ULT(sum, bld.ConstInt64(200, 8))
	q2 := bld.Eq(sum, bld.ConstInt64(10, 8))
	q3 := bld.ULT(x, bld.ConstInt64(5, 8))

	inc := NewSession(bld)
	scr := NewSession(bld)
	scr.Scratch = true

	queries := [][]*Term{{q1}, {q1, q2}, {q1, q2, q3}, {q2, q3}, {q1}}
	for i, q := range queries {
		ri, rs := inc.Solve(q...), scr.Solve(q...)
		if ri != rs {
			t.Fatalf("query %d: incremental=%v scratch=%v", i, ri, rs)
		}
		if ri != Sat {
			t.Fatalf("query %d: %v, want sat", i, ri)
		}
		if inc.HasModel() && i >= 1 && i <= 3 { // queries that include q2
			if v := inc.Value(sum); v.Int64() != 10 {
				t.Fatalf("query %d: model sum=%v violates q2", i, v)
			}
		}
	}
	if inc.Queries != int64(len(queries)) || scr.Queries != int64(len(queries)) {
		t.Fatalf("query counts: inc=%d scr=%d want %d", inc.Queries, scr.Queries, len(queries))
	}
	if inc.Blasts() >= scr.Blasts() {
		t.Errorf("incremental blasted %d terms, scratch %d; reuse not happening", inc.Blasts(), scr.Blasts())
	}
	// The repeat of q1 (all terms cached) must not count as a blast pass.
	if inc.BlastPasses >= inc.Queries {
		t.Errorf("blast passes %d not amortized over %d queries", inc.BlastPasses, inc.Queries)
	}
	if scr.BlastPasses != scr.Queries {
		t.Errorf("scratch blast passes %d, want one per query (%d)", scr.BlastPasses, scr.Queries)
	}
	if scr.LearntsReused != 0 {
		t.Errorf("scratch reused %d learned clauses, want 0", scr.LearntsReused)
	}
	// The last two queries blast nothing new and hold in query 2's
	// model, so the incremental core answers them from it (the model
	// checks above ran against the reused model at query 3). A scratch
	// solver has no earlier model to reuse.
	if got := inc.ModelReuses(); got != 2 {
		t.Errorf("incremental model reuses %d, want 2", got)
	}
	if got := scr.ModelReuses(); got != 0 {
		t.Errorf("scratch model reuses %d, want 0", got)
	}
}

// TestSessionUnsatCoreMatchesScratch: SolveCore verdicts and fast-path
// accounting agree between the modes, and unsat cores identify the
// same contradictory assumptions on propagation-decided queries.
func TestSessionUnsatCoreMatchesScratch(t *testing.T) {
	bld := NewBuilder()
	x := bld.Var("x", 8)
	lt := bld.ULT(x, bld.ConstInt64(4, 8))
	ge := bld.ULE(bld.ConstInt64(7, 8), x)
	mid := bld.Eq(bld.And(x, bld.ConstInt64(0xF0, 8)), bld.ConstInt64(0, 8))

	for _, scratch := range []bool{false, true} {
		s := NewSession(bld)
		s.Scratch = scratch
		res, core := s.SolveCore(mid, lt, ge)
		if res != Unsat {
			t.Fatalf("scratch=%v: %v, want unsat", scratch, res)
		}
		has := map[int]bool{}
		for _, i := range core {
			has[i] = true
		}
		if !has[1] || !has[2] {
			t.Errorf("scratch=%v: core %v misses the contradictory pair {1,2}", scratch, core)
		}
		// The session stays usable after Unsat.
		if res := s.Solve(mid, lt); res != Sat {
			t.Fatalf("scratch=%v: follow-up query %v, want sat", scratch, res)
		}
		if v := s.Value(x); v.Int64() >= 4 {
			t.Errorf("scratch=%v: model x=%v violates x<4", scratch, v)
		}
	}
}

// hardQuery builds a query far beyond the solver's reach: 16-bit
// multiplication distributivity, a classic CDCL-hostile instance. Its
// only fast exit is an interrupt. (Commutativity x*y ≠ y*x, the usual
// choice, no longer works: chain canonicalization interns both
// products to one node and the query folds to false at construction.)
func hardQuery(bld *Builder) *Term {
	x := bld.Var("hardx", 16)
	y := bld.Var("hardy", 16)
	z := bld.Var("hardz", 16)
	lhs := bld.Mul(x, bld.Add(y, z))
	rhs := bld.Add(bld.Mul(x, y), bld.Mul(x, z))
	return bld.Ne(lhs, rhs)
}

// TestSessionContextCancellation: a long query under a context that is
// cancelled mid-search returns Unknown promptly — within one solver
// check interval, not after the search would have finished — and every
// later query on the cancelled context short-circuits.
func TestSessionContextCancellation(t *testing.T) {
	bld := NewBuilder()
	q := hardQuery(bld)
	s := NewSession(bld)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	done := make(chan Result, 1)
	go func() { done <- s.SolveContext(ctx, q) }()
	select {
	case res := <-done:
		if res != Unknown {
			t.Fatalf("cancelled long query returned %v, want unknown", res)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("cancelled query did not return within 15s")
	}
	if ctx.Err() == nil {
		t.Fatal("test bug: context not cancelled")
	}
	if s.Timeouts != 1 {
		t.Errorf("Timeouts = %d, want 1 (cancellation counts as an Unknown verdict)", s.Timeouts)
	}

	// Follow-up queries on the dead context return immediately,
	// without blasting: this is what lets a cancelled checker drain
	// its remaining candidates in microseconds.
	start := time.Now()
	if res := s.SolveContext(ctx, bld.Eq(bld.Var("z", 8), bld.ConstInt64(1, 8))); res != Unknown {
		t.Errorf("query on cancelled context returned %v, want unknown", res)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("query on cancelled context took %v; must short-circuit", d)
	}
}

// TestSessionContextDeadline: a context deadline bounds a query the
// same way the legacy wall-clock timeout did.
func TestSessionContextDeadline(t *testing.T) {
	bld := NewBuilder()
	q := hardQuery(bld)
	s := NewSession(bld)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	done := make(chan Result, 1)
	go func() { done <- s.SolveContext(ctx, q) }()
	select {
	case res := <-done:
		if res != Unknown {
			t.Fatalf("deadline-bounded long query returned %v, want unknown", res)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("deadline-bounded query did not return within 15s")
	}
}

// TestSessionTimeoutField: the per-query Timeout knob still works,
// now implemented as a derived context deadline.
func TestSessionTimeoutField(t *testing.T) {
	bld := NewBuilder()
	q := hardQuery(bld)
	s := NewSession(bld)
	s.Timeout = 100 * time.Millisecond
	done := make(chan Result, 1)
	go func() { done <- s.Solve(q) }()
	select {
	case res := <-done:
		if res != Unknown {
			t.Fatalf("timed-out long query returned %v, want unknown", res)
		}
		if s.Timeouts != 1 {
			t.Errorf("Timeouts = %d, want 1", s.Timeouts)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("timed-out query did not return within 15s")
	}
}

// TestSessionFastPathNoModel: constant queries are answered without a
// SAT core in both modes and carry no model.
func TestSessionFastPathNoModel(t *testing.T) {
	bld := NewBuilder()
	x := bld.Var("x", 8)
	for _, scratch := range []bool{false, true} {
		s := NewSession(bld)
		s.Scratch = scratch
		if got := s.Solve(bld.ULE(bld.ConstInt64(0, 8), x)); got != Sat {
			t.Fatalf("scratch=%v: const-true: %v", scratch, got)
		}
		if s.HasModel() {
			t.Errorf("scratch=%v: fast-path Sat claims a model", scratch)
		}
		if got := s.Solve(bld.ULT(x, bld.ConstInt64(0, 8))); got != Unsat {
			t.Fatalf("scratch=%v: const-false: %v", scratch, got)
		}
		if s.FastPaths != 2 {
			t.Errorf("scratch=%v: FastPaths=%d, want 2", scratch, s.FastPaths)
		}
		if s.BlastPasses != 0 {
			t.Errorf("scratch=%v: fast paths blasted terms (%d passes)", scratch, s.BlastPasses)
		}
	}
}
