package ir

// SSA-form analyses run by the checker before encoding: global value
// numbering and dead-store elimination. Both are deliberately
// conservative — the checker's output with them enabled must stay
// byte-identical to the legacy pipeline across the sweep corpus
// (TestSSAVsLegacyByteIdentity) — so every rule below is justified
// against how internal/core consumes the IR:
//
//   - Report positions anchor at a block's first position-carrying
//     instruction, so neither pass removes that anchor instruction
//     (GVN keeps it in place and only redirects its uses).
//   - The well-defined-program assumption ∆ deduplicates UB-condition
//     terms by interned term identity, keeping the first condition in
//     block order. GVN therefore only merges a value into a
//     representative that precedes it in the same block: the victim's
//     conditions encode to the very terms the representative's
//     conditions already produced, so the deduplicated assumption list
//     (and every solver query) is unchanged.
//   - Origin metadata feeds macro/inline report filtering through
//     transitive argument walks, so GVN requires the representative
//     and victim to carry the same origin.
//   - simplify() creates one site per OpICmp instruction and traces
//     boolean (width-1) use chains, so comparisons are never merged
//     and no candidate may consume a width-1 operand.
//
// Value numbering is structural: two instructions are congruent when
// they have the same operation, width, signedness, auxiliary fields,
// and identical (already-renumbered) operands in order. This is
// exactly the equivalence the bv builder's hash-consing assigns to
// their encodings, computed before encoding happens — term interning
// as a value-numbering oracle, under-approximated by not modeling the
// rewrite rules (a rewrite can merge terms whose UB side conditions
// differ, which ∆ must keep apart).

// PassStats aggregates what one RunSSAPasses invocation did. Every
// pass registered in RunSSAPasses surfaces at least one counter here;
// scripts/invariants.sh enforces that each counter reaches core.Counters
// and that each pass has a differential oracle.
type PassStats struct {
	PromotedAllocas  int
	PlacedPhis       int
	EliminatedLoads  int
	EliminatedStores int
	GVNHits          int

	SCCPFoldedValues      int
	SCCPFoldedBranches    int
	SCCPUnreachableBlocks int
	CrossBlockGVNHits     int
	HoistedUBTerms        int

	// Sharpening indicators, used by the differential oracles: facts
	// only the optimistic SCCP iteration could prove (beyond the bv
	// rewrite layer's reach) and the total number of instructions
	// hoisting moved. When promotion, store elimination, these, and
	// HoistedValues are all zero, the pass stack provably changed no
	// encoding and the checker's output is byte-identical to the
	// legacy pipeline's.
	SCCPSharpened int
	HoistedValues int
}

// Sharpening reports whether any pass transformed the function beyond
// what the encoding layer's rewrite rules would have seen through —
// i.e. whether byte-identical checker output versus the legacy
// pipeline is still guaranteed (false) or only semantic equivalence is
// (true). The differential fuzz oracles key their strictness on this.
func (ps PassStats) Sharpening() bool {
	return ps.PromotedAllocas > 0 || ps.EliminatedStores > 0 ||
		ps.EliminatedLoads > 0 || ps.SCCPSharpened > 0 || ps.HoistedValues > 0
}

// RunSSAPasses runs the SSA pass stack over f: mem2reg promotion of
// non-escaping allocas (ssa.go), then sparse conditional constant
// propagation (sccp.go) over the promoted form, then dominator-ordered
// value numbering, dead-store elimination, and loop-invariant UB
// hoisting (licm.go). dom must be f's dominator tree; the passes
// change no blocks or edges, so it stays valid. UB-condition insertion
// and encoding must happen after this.
func RunSSAPasses(f *Func, dom *DomTree) PassStats {
	m2r := PromoteAllocas(f, dom)
	sccp := SCCP(f)
	sameGVN, crossGVN := GVN(f, dom)
	dse := DSE(f)
	hoistedUB, hoistedAll := HoistLoopInvariantUB(f, dom)
	return PassStats{
		PromotedAllocas:  m2r.PromotedAllocas,
		PlacedPhis:       m2r.PlacedPhis,
		EliminatedLoads:  m2r.RemovedLoads,
		EliminatedStores: m2r.RemovedStores + dse,
		GVNHits:          sameGVN,

		SCCPFoldedValues:      sccp.FoldedValues,
		SCCPFoldedBranches:    sccp.FoldedBranches,
		SCCPUnreachableBlocks: sccp.UnreachableBlocks,
		CrossBlockGVNHits:     crossGVN,
		HoistedUBTerms:        hoistedUB,

		SCCPSharpened: sccp.Sharpened,
		HoistedValues: hoistedAll,
	}
}

// gvnKey is the structural identity of a candidate instruction. Args
// are value IDs after renumbering (candidates have at most two).
type gvnKey struct {
	op         Op
	width      int
	signed     bool
	aux, aux2  int64
	arg0, arg1 int
}

// gvnCandidate reports whether v may participate in value numbering.
// Pure computations and constants only: no memory, calls, phis,
// opaque leaves, or terminators (OpUnknown is a fresh value each time
// by definition and must never merge). OpICmp is excluded because the
// simplification algorithm creates one report site per comparison
// instruction; width-1 results and operands are excluded because
// boolean use chains feed the sinks-only-to-folded-branches analysis;
// OpSelect is excluded by the width-1-operand rule (its condition).
func gvnCandidate(v *Value) bool {
	switch v.Op {
	case OpConst,
		OpAdd, OpSub, OpMul, OpUDiv, OpSDiv, OpURem, OpSRem, OpNeg,
		OpAnd, OpOr, OpXor, OpNot, OpShl, OpLShr, OpAShr,
		OpZExt, OpSExt, OpTrunc, OpPtrAdd, OpIndexAddr:
	default:
		return false
	}
	if v.Width <= 1 {
		return false
	}
	for _, a := range v.Args {
		if a.Width <= 1 {
			return false
		}
	}
	return true
}

// firstAnchor returns the block's first position-carrying value — the
// instruction report positions anchor at — or nil.
func firstAnchor(b *Block) *Value {
	for _, v := range b.Values() {
		if v.Pos.IsValid() {
			return v
		}
	}
	return nil
}

// gvnCarriesUBCond reports whether v is an operation insertUBConds
// attaches a condition to (among the gvnCandidate ops). A cross-block
// victim carrying a UB condition is never deleted: its condition's
// guarded ∆ form Or(¬R'_d, ¬U_d) names its *own* block's reachability,
// which differs from the representative's, so deleting it would drop a
// term the legacy pipeline keeps. The instruction stays in place as a
// condition carrier with its uses redirected.
func gvnCarriesUBCond(v *Value) bool {
	switch v.Op {
	case OpPtrAdd, OpUDiv, OpSDiv, OpURem, OpSRem, OpShl, OpLShr, OpAShr:
		return true
	case OpAdd, OpSub, OpMul, OpNeg:
		return v.Signed
	case OpIndexAddr:
		return v.Aux2 > 0
	}
	return false
}

// GVN merges structurally identical pure computations with
// dominator-ordered availability: a value computed in a block is
// available in every block it dominates, so the table is scoped to the
// dominator-tree walk. Within a block the representative must precede
// the victim; across blocks the representative's block must dominate
// the victim's block *and* precede it in layout order, so that the ∆
// deduplication (which keeps the first condition in block order) sees
// the same survivor either way. Uses of the victim are redirected to
// the representative and the victim is deleted, unless it is its
// block's report-position anchor or a cross-block UB-condition carrier
// (see gvnCarriesUBCond). Returns the same-block and cross-block merge
// counts.
func GVN(f *Func, dom *DomTree) (sameBlock, crossBlock int) {
	redirect := map[*Value]*Value{}
	resolve := func(v *Value) *Value {
		for {
			r, ok := redirect[v]
			if !ok {
				return v
			}
			v = r
		}
	}
	remove := map[*Value]bool{}
	blockIdx := make(map[*Block]int, len(f.Blocks))
	for i, b := range f.Blocks {
		blockIdx[b] = i
	}
	children := domChildren(f, dom)
	table := map[gvnKey][]*Value{}
	var scope []gvnKey // undo log: pop table entries when leaving a block

	var walk func(b *Block)
	walk = func(b *Block) {
		mark := len(scope)
		anchor := firstAnchor(b)
		for _, v := range b.Instrs {
			// Renumber operands first so chains of congruences close
			// through dominators.
			for i, a := range v.Args {
				v.Args[i] = resolve(a)
			}
			if !gvnCandidate(v) {
				continue
			}
			key := gvnKey{
				op: v.Op, width: v.Width, signed: v.Signed,
				aux: v.Aux, aux2: v.Aux2, arg0: -1, arg1: -1,
			}
			if len(v.Args) > 0 {
				key.arg0 = v.Args[0].ID
			}
			if len(v.Args) > 1 {
				key.arg1 = v.Args[1].ID
			}
			merged := false
			for _, rep := range table[key] {
				// Same origin keeps the transitive origin walks behind
				// macro/inline filtering unchanged.
				if rep.Origin != v.Origin {
					continue
				}
				inBlock := rep.Block == b
				if !inBlock && blockIdx[rep.Block] >= blockIdx[b] {
					continue // ∆ dedup keeps the first in block order
				}
				redirect[v] = rep
				if inBlock {
					sameBlock++
				} else {
					crossBlock++
				}
				if v != anchor && (inBlock || !gvnCarriesUBCond(v)) {
					remove[v] = true
				}
				merged = true
				break
			}
			if !merged {
				table[key] = append(table[key], v)
				scope = append(scope, key)
			}
		}
		if b.Term != nil {
			for i, a := range b.Term.Args {
				b.Term.Args[i] = resolve(a)
			}
		}
		for _, c := range children[b] {
			walk(c)
		}
		for len(scope) > mark {
			k := scope[len(scope)-1]
			scope = scope[:len(scope)-1]
			table[k] = table[k][:len(table[k])-1]
		}
	}
	if f.Entry != nil {
		walk(f.Entry)
	}
	hits := sameBlock + crossBlock
	if hits == 0 {
		return 0, 0
	}
	// Cross-block uses of merged values (including phi operands in
	// blocks processed before the victim's block).
	for _, b := range f.Blocks {
		for _, v := range b.Values() {
			for i, a := range v.Args {
				if a != nil {
					v.Args[i] = resolve(a)
				}
			}
		}
	}
	if len(remove) > 0 {
		for _, b := range f.Blocks {
			kept := b.Instrs[:0]
			for _, v := range b.Instrs {
				if !remove[v] {
					kept = append(kept, v)
				}
			}
			b.Instrs = kept
		}
	}
	return sameBlock, crossBlock
}

// DSE deletes stores that are fully overwritten within their own
// block: a store to the same address value, of at least the same
// width, with no load or call in between (an intervening store to a
// different address cannot resurrect the dead bytes — the overwriting
// store is last either way). The block's report-position anchor is
// never deleted. Returns the number of stores removed.
func DSE(f *Func) int {
	removed := 0
	for _, b := range f.Blocks {
		anchor := firstAnchor(b)
		last := map[*Value]*Value{} // address value -> latest store
		var dead []*Value
		for _, v := range b.Instrs {
			switch v.Op {
			case OpLoad, OpCall:
				// Either may observe stored bytes (a call can load
				// through any escaped pointer); everything pending is
				// live.
				clear(last)
			case OpStore:
				addr := v.Args[0]
				if prev := last[addr]; prev != nil &&
					v.Args[1].Width >= prev.Args[1].Width &&
					prev != anchor {
					dead = append(dead, prev)
					removed++
				}
				last[addr] = v
			}
		}
		if len(dead) == 0 {
			continue
		}
		deadSet := map[*Value]bool{}
		for _, v := range dead {
			deadSet[v] = true
		}
		kept := b.Instrs[:0]
		for _, v := range b.Instrs {
			if !deadSet[v] {
				kept = append(kept, v)
			}
		}
		b.Instrs = kept
	}
	return removed
}
