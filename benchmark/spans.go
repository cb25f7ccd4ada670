package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public functions — never inside the program. Spans of one
// op share its Op id; Parent names the span that caused this one.
type span struct {
	Name   string    `json:"name"`
	Op     int       `json:"op"`
	Parent string    `json:"parent,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// tracer keeps a traced run's spans in memory until the run ends. A nil
// tracer records nothing, which is how untraced runs call the same code.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// span opens a span and returns the function that closes it.
func (t *tracer) span(op int, name, parent string) (end func()) {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		s := span{Name: name, Op: op, Parent: parent, Start: start, End: time.Now()}
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	}
}

// write dumps the spans as JSON once the measurement is over.
func (t *tracer) write(path string) error {
	if t == nil || path == "" {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
