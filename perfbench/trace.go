package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary the benchmark calls
// across. Spans of one op share Op; Parent indexes the enclosing span (-1
// for an op's root). Counts hold the layer counters read at that boundary.
type span struct {
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Parent int              `json:"parent"`
	Op     int              `json:"op"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory; they are written once, when the run ends.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds(), Parent: parent, Op: t.op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.End = time.Since(t.t0).Nanoseconds()
	return time.Duration(s.End - s.Start)
}

func (t *tracer) count(id int, name string, v int64) {
	if t.spans[id].Counts == nil {
		t.spans[id].Counts = map[string]int64{}
	}
	t.spans[id].Counts[name] = v
}

func (t *tracer) write(path string, env map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"env": env, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
