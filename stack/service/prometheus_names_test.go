package service

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestPrometheusCounterNames pins every solver and result-cache-result
// family of the Prometheus rendering — name, help text, type, and
// order. Dashboards and alerts key on these names.
func TestPrometheusCounterNames(t *testing.T) {
	var buf bytes.Buffer
	writePrometheus(&buf, metricsSnapshot{})
	var got []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, "stackd_solver_") || strings.Contains(line, "stackd_result_cache_result_") {
			got = append(got, line)
		}
	}
	families := []struct{ name, help string }{
		{"stackd_solver_functions_total", "Functions analyzed."},
		{"stackd_solver_blocks_total", "Basic blocks analyzed."},
		{"stackd_solver_queries_total", "Solver queries issued."},
		{"stackd_solver_timeouts_total", "Solver queries that hit the per-query timeout."},
		{"stackd_solver_rewrite_hits_total", "Term constructions answered by word-level rewrites."},
		{"stackd_solver_terms_created_total", "Interned term nodes created."},
		{"stackd_solver_fast_paths_total", "Queries decided from constants without CDCL search."},
		{"stackd_solver_terms_blasted_total", "Terms lowered to CNF."},
		{"stackd_solver_blast_passes_total", "Queries that lowered at least one new term."},
		{"stackd_solver_learnts_reused_total", "Learned clauses retained across queries."},
		{"stackd_solver_builder_cache_hits_total", "Term constructions answered by hash-consing."},
		{"stackd_solver_learnts_dropped_total", "Learned clauses discarded by reductions and budgets."},
		{"stackd_solver_arena_bytes_reused_total", "Term-arena bytes served from recycled slabs."},
		{"stackd_solver_promoted_allocas_total", "Allocas promoted to SSA values (WithSSA)."},
		{"stackd_solver_eliminated_stores_total", "Stores removed by SSA passes (WithSSA)."},
		{"stackd_solver_gvn_hits_total", "Values merged by value numbering (WithSSA)."},
		{"stackd_solver_sccp_folded_values_total", "Values SCCP transmuted to constants (WithSSA)."},
		{"stackd_solver_sccp_folded_branches_total", "Branch conditions SCCP proved constant (WithSSA)."},
		{"stackd_solver_sccp_unreachable_blocks_total", "Blocks SCCP found unreachable (WithSSA)."},
		{"stackd_solver_sccp_sharpened_total", "Lattice-only facts SCCP proved beyond the rewrite layer (WithSSA)."},
		{"stackd_solver_cross_block_gvn_hits_total", "Values merged into a dominating block's representative (WithSSA)."},
		{"stackd_solver_hoisted_ub_terms_total", "UB-carrying instructions hoisted out of loop headers (WithSSA)."},
		{"stackd_solver_dom_ordered_skips_total", "Elimination queries skipped by the dominator-ordered walk (WithSSA)."},
		{"stackd_solver_ssa_sharpened_total", "Functions where SSA passes sharpened beyond the rewrite layer (WithSSA)."},
		{"stackd_result_cache_result_hits_total", "Sources answered whole from the result cache."},
		{"stackd_result_cache_result_misses_total", "Sources analyzed for real (result-cache misses)."},
	}
	var want []string
	for _, f := range families {
		want = append(want,
			"# HELP "+f.name+" "+f.help,
			"# TYPE "+f.name+" counter",
			f.name+" 0")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("prometheus counter families:\n got  %q\n want %q", got, want)
	}
}
