package stack

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestStatsJSONKeys pins the public stats encoding (the Result.stats
// object, the ?stats=1 trailer, and /metrics' solver block): with
// every counter nonzero, Stats marshals to exactly these keys in
// exactly this order. Keys are append-only: clients decode them.
func TestStatsJSONKeys(t *testing.T) {
	var st Stats
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(i + 1))
	}
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	if _, err := dec.Token(); err != nil { // {
		t.Fatal(err)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		if _, err := dec.Token(); err != nil { // the value
			t.Fatal(err)
		}
	}
	want := []string{
		"functions", "blocks", "queries", "timeouts",
		"rewriteHits", "termsCreated", "fastPaths",
		"termsBlasted", "blastPasses", "learntsReused",
		"cacheHits", "learntsDropped", "arenaBytesReused",
		"promotedAllocas", "eliminatedStores", "gvnHits",
		"sccpFoldedValues", "sccpFoldedBranches", "sccpUnreachableBlocks", "sccpSharpened",
		"crossBlockGvnHits", "hoistedUbTerms", "domOrderedSkips",
		"ssaSharpened", "cacheResultHits", "cacheResultMisses",
	}
	if !reflect.DeepEqual(keys, want) {
		t.Errorf("Stats JSON keys:\n got  %q\n want %q", keys, want)
	}
}
