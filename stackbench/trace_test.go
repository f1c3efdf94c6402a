package main

import (
	"testing"
	"time"
)

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

// Self time is the span's duration minus the part of it its children
// cover: overlapping children count once, and a child running past its
// parent's end counts only inside the parent.
func TestSelfTimeNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "client", Start: at(10), End: at(60)},
		{ID: 3, Parent: 1, Name: "client", Start: at(40), End: at(70)}, // overlaps span 2
		{ID: 4, Parent: 1, Name: "cache", Start: at(90), End: at(120)}, // runs past the parent
		{ID: 5, Parent: 2, Name: "handle", Start: at(20), End: at(50)},
		{ID: 6, Parent: 5, Name: "cache", Start: at(25), End: at(30)},
	}
	total, self := layerTimes(spans)
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	for name, want := range map[string]time.Duration{
		"request": ms(100 - 60 - 10), // children cover [10,70] and [90,100]
		"client":  ms(50 - 30 + 30),  // span 2 minus handle; span 3 has no children
		"handle":  ms(30 - 5),
		"cache":   ms(30 + 5),
	} {
		if self[name] != want {
			t.Errorf("self[%s] = %v, want %v", name, self[name], want)
		}
	}
	if total["client"] != ms(80) || total["request"] != ms(100) {
		t.Errorf("totals = %v", total)
	}
}

func TestTracerParentsAndRequests(t *testing.T) {
	tr := &tracer{}
	tr.do("outer", 0, 7, func(id int64) {
		tr.do("inner", id, 7, func(int64) { time.Sleep(2 * time.Millisecond) })
	})
	spans := tr.snapshot()
	if len(spans) != 2 {
		t.Fatalf("spans = %+v", spans)
	}
	inner, outer := spans[0], spans[1]
	if inner.Parent != outer.ID || inner.Req != 7 || outer.Req != 7 || outer.Parent != 0 {
		t.Errorf("links wrong: %+v", spans)
	}
	if _, self := layerTimes(spans); self["outer"] >= outer.dur()-2*time.Millisecond+time.Millisecond {
		t.Errorf("outer self %v not reduced by inner %v", self["outer"], inner.dur())
	}
}
