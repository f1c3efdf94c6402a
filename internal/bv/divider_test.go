package bv

// Tests for the divider encoding. The restoring divider is the largest
// circuit the blaster emits (one 32-bit sdiv used to outweigh the rest
// of a typical function's encoding), so it is checked two ways:
// exhaustively against the concrete evaluator at a width small enough
// to enumerate, and by a size bound at 32 bits, so an encoding
// regression fails here instead of hiding in benchmark noise.

import (
	"math/big"
	"testing"

	"repro/internal/sat"
)

// TestDividerExhaustiveWidth4 checks UDiv/URem/SDiv/SRem at width 4 for
// all 256 operand pairs — including division by zero and INT_MIN / -1
// — against the concrete evaluator. Operands are variables pinned by
// assumptions, so the constant folder never sees the division and the
// blasted circuit itself is what answers: the reference value must be
// possible under the pinned operands, and no other value may be.
func TestDividerExhaustiveWidth4(t *testing.T) {
	const w = 4
	ops := []struct {
		name  string
		op    Op
		build func(b *Builder, x, y *Term) *Term
	}{
		{"udiv", OpUDiv, (*Builder).UDiv},
		{"urem", OpURem, (*Builder).URem},
		{"sdiv", OpSDiv, (*Builder).SDiv},
		{"srem", OpSRem, (*Builder).SRem},
	}
	for _, o := range ops {
		b := NewBuilder()
		s := NewSolver(b)
		x, y := b.Var("x", w), b.Var("y", w)
		term := o.build(b, x, y)
		if term.op != o.op {
			t.Fatalf("%s: builder rewrote x op y to %v; the test needs the raw circuit", o.name, term)
		}
		for xv := int64(0); xv < 1<<w; xv++ {
			for yv := int64(0); yv < 1<<w; yv++ {
				want := refBinary(o.op, w, big.NewInt(xv), big.NewInt(yv))
				pinX := b.Eq(x, b.ConstInt64(xv, w))
				pinY := b.Eq(y, b.ConstInt64(yv, w))
				wantC := b.Const(want, w)
				if got := s.Solve(pinX, pinY, b.Eq(term, wantC)); got != Sat {
					t.Fatalf("%s %d,%d: reference value %v is impossible (%v)", o.name, xv, yv, want, got)
				}
				if got := s.Solve(pinX, pinY, b.Ne(term, wantC)); got != Unsat {
					t.Fatalf("%s %d,%d: a value other than %v is possible (%v)", o.name, xv, yv, want, got)
				}
			}
		}
	}
}

// blastVars returns the SAT variables one fresh blaster allocates to
// lower t, including the constant-true variable every blaster owns.
func blastVars(b *Builder, t *Term) int {
	s := sat.New()
	newBlaster(s).blast(b, t)
	return s.NumVars()
}

// TestDividerEncodingSize pins the size of a 32-bit divider of two
// variables. The restoring divider shares one ¬y across its stages and
// takes each stage's rem ≥ y from the carry-out of rem + ¬y + 1; the
// earlier encoding (a fresh negation per stage plus a separate ult
// chain) blasted udiv to 13,062 variables and sdiv to 13,436.
func TestDividerEncodingSize(t *testing.T) {
	const bound = 6600
	b := NewBuilder()
	x, y := b.Var("x", 32), b.Var("y", 32)
	for _, c := range []struct {
		name string
		term *Term
	}{
		{"udiv", b.UDiv(x, y)},
		{"sdiv", b.SDiv(x, y)},
	} {
		if n := blastVars(b, c.term); n > bound {
			t.Errorf("32-bit %s blasts to %d SAT variables, want <= %d", c.name, n, bound)
		} else {
			t.Logf("32-bit %s: %d SAT variables", c.name, n)
		}
	}
	t.Logf("32-bit mul: %d, add: %d SAT variables", blastVars(b, b.Mul(x, y)), blastVars(b, b.Add(x, y)))
}
