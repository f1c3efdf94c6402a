package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call. Spans of one request or input file share Req.
type span struct {
	ID     int64     `json:"id"`
	Parent int64     `json:"parent,omitempty"` // 0: a root span
	Req    int64     `json:"req"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory; they are written out once, when the
// run ends, so recording costs no I/O inside the measured calls.
type tracer struct {
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func (t *tracer) newID() int64 { return t.nextID.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// do times fn as a span; fn receives the span's ID to parent its own
// children.
func (t *tracer) do(name string, parent, req int64, fn func(id int64)) time.Duration {
	id := t.newID()
	s := span{ID: id, Parent: parent, Req: req, Name: name, Start: time.Now()}
	fn(id)
	s.End = time.Now()
	t.add(s)
	return s.dur()
}

func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerTimes sums, per span name, total duration and self time. Self
// time is a span's duration minus the part of its interval that its
// children cover; overlapping children (concurrent calls) are counted
// once.
func layerTimes(spans []span) (total, self map[string]time.Duration) {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	total = map[string]time.Duration{}
	self = map[string]time.Duration{}
	for _, s := range spans {
		total[s.Name] += s.dur()
		self[s.Name] += s.dur() - covered(s, kids[s.ID])
	}
	return total, self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var sum time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			sum += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		sum += cur.b.Sub(cur.a)
	}
	return sum
}

// writeSpans writes the spans as JSON lines, one span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// spanRef travels in a context across calls whose signatures take one,
// and in an HTTP header across the client→server hop, so a callee's
// span can name its caller's span and request.
type spanRef struct{ ID, Req int64 }

type spanKey struct{}

func withSpan(ctx context.Context, r spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, r)
}

func spanOf(ctx context.Context) spanRef {
	r, _ := ctx.Value(spanKey{}).(spanRef)
	return r
}
