package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one op share Op;
// Parent is the span that caused this one (-1 for an op's root). Nesting is
// declared by the harness, not read off the clock: a replayed layer call
// runs after the real call it explains, and still counts as its child.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Kind   string `json:"kind,omitempty"` // op kind, on root spans
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps every span of a traced run in memory.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// newOp opens the root span of a new op and returns a tracer under it.
func (r *recorder) newOp(kind, root string) *tracer {
	r.mu.Lock()
	op := r.ops
	r.ops++
	r.mu.Unlock()
	t := &tracer{rec: r, op: op, parent: -1}
	t.parent = t.begin(root, kind)
	return t
}

// tracer records spans under one parent span of one op.
type tracer struct {
	rec    *recorder
	op     int
	parent int
}

func (t *tracer) begin(name, kind string) int {
	now := time.Since(t.rec.t0).Nanoseconds()
	t.rec.mu.Lock()
	id := len(t.rec.spans)
	t.rec.spans = append(t.rec.spans, span{ID: id, Parent: t.parent, Op: t.op, Kind: kind, Name: name, Start: now})
	t.rec.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	now := time.Since(t.rec.t0).Nanoseconds()
	t.rec.mu.Lock()
	t.rec.spans[id].End = now
	t.rec.mu.Unlock()
}

// span times f as a child of the tracer's parent.
func (t *tracer) span(name string, f func()) {
	id := t.begin(name, "")
	f()
	t.end(id)
}

// timed times f as a child span and returns a tracer under that span, so
// the caller can declare the span's own children after it has ended.
func (t *tracer) timed(name string, f func()) *tracer {
	id := t.begin(name, "")
	f()
	t.end(id)
	return &tracer{rec: t.rec, op: t.op, parent: id}
}

// selfTimes returns each span's duration minus its declared children's
// durations, floored at zero, indexed by span id.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// writeTrace writes the spans as one JSON document.
func writeTrace(path string, workload string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
