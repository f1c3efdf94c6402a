package core

import (
	"reflect"
	"strings"
	"testing"
)

// TestCountersTags: every counter carries the tags its surfaces derive
// from — a JSON key, a stackd_*_total Prometheus name, and help text —
// and an integer kind Add can sum. A field added without them would
// export an unnamed metric.
func TestCountersTags(t *testing.T) {
	typ := reflect.TypeOf(Counters{})
	seen := map[string]string{}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if k := f.Type.Kind(); k != reflect.Int && k != reflect.Int64 {
			t.Errorf("%s: kind %s, want int or int64", f.Name, k)
		}
		prom := f.Tag.Get("prom")
		if !strings.HasPrefix(prom, "stackd_") || !strings.HasSuffix(prom, "_total") {
			t.Errorf("%s: prom tag %q, want stackd_*_total", f.Name, prom)
		}
		if f.Tag.Get("json") == "" || f.Tag.Get("help") == "" {
			t.Errorf("%s: missing json or help tag", f.Name)
		}
		if prev, dup := seen[prom]; dup {
			t.Errorf("%s and %s share the Prometheus name %q", prev, f.Name, prom)
		}
		seen[prom] = f.Name
	}
}

// TestCountersAdd: Add sums every field, so a new counter is merged
// across workers and requests without further code.
func TestCountersAdd(t *testing.T) {
	var a, b Counters
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		va.Field(i).SetInt(int64(i))
		vb.Field(i).SetInt(100)
	}
	a.Add(b)
	for i := 0; i < va.NumField(); i++ {
		if got := va.Field(i).Int(); got != int64(i)+100 {
			t.Errorf("%s = %d after Add, want %d", va.Type().Field(i).Name, got, i+100)
		}
	}
}
