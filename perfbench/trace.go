package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// A span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one op share its op id; Parent 0
// marks the op's root. Size is what the call handled (bytes emitted,
// events dispatched, accesses replayed), 0 if nothing countable.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
	Size   int64  `json:"size,omitempty"`
}

// tracer keeps spans in memory until the run ends, with samples: per-op
// values the replays derive from several spans. A nil tracer records
// nothing, so untraced replays pay only a nil check.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	samples map[string][]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), samples: map[string][]float64{}} }

func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Op: op, Start: now, End: -1})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// do runs fn inside a span named name under parent and returns the span's
// duration in ms (0 on a nil tracer). fn returns the span's size.
func (t *tracer) do(name string, parent int, op int64, fn func() (int64, error)) (float64, error) {
	id := t.begin(name, parent, op)
	size, err := fn()
	t.end(id)
	if t == nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.Size = size
	return float64(s.End-s.Start) / 1e6, err
}

// sample records one per-op value under name.
func (t *tracer) sample(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.samples[name] = append(t.samples[name], v)
}

// spanStats are the durations (ms) and summed sizes of the spans of one
// name.
type spanStats struct {
	ms   []float64
	size int64
}

// byName groups the finished spans by name.
func (t *tracer) byName() map[string]*spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]*spanStats{}
	for _, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		st.ms = append(st.ms, float64(s.End-s.Start)/1e6)
		st.size += s.Size
	}
	return out
}

// finish fills every span's self time: its duration minus the part its
// children cover. Children of one span run one after another, so that part
// is the sum of their durations.
func (t *tracer) finish() {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start - covered[i+1]
	}
}

// write stores the spans as JSON, with the host facts of the run.
func (t *tracer) write(path string, host map[string]string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	out, err := json.Marshal(struct {
		Host  map[string]string `json:"host"`
		Spans []span            `json:"spans"`
	}{host, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

// summary prints, per span name, the count, total and self time.
func (t *tracer) summary(w io.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	type agg struct {
		n           int
		total, self int64
	}
	by := map[string]*agg{}
	var names []string
	for _, s := range t.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
			names = append(names, s.Name)
		}
		a.n++
		a.total += s.End - s.Start
		a.self += s.Self
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-32s %7s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "%-32s %7d %12.3f %12.3f\n", n, a.n, float64(a.total)/1e6, float64(a.self)/1e6)
	}
}
