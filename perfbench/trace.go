package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`    // request index in the stream; -1 for set-up work
	Parent int    `json:"parent"` // index of the enclosing span; -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Allocs is the heap allocation count inside the span, when the
	// caller asked for it (-1 otherwise).
	Allocs int64 `json:"allocs"`
	// Probe marks a span from the layer probe, which measures a layer
	// the workload's own traffic does not reach.
	Probe bool `json:"probe,omitempty"`
}

// tracer keeps spans in memory. A nil *tracer records nothing, which
// is how the untraced replay runs the same code. Its methods are safe
// to call from the in-process replicas' server goroutines.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	probe bool
	ms    runtime.MemStats
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, req, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(t.t0)), Allocs: -1, Probe: t.probe})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = int64(time.Since(t.t0))
}

// set updates span i under the lock.
func (t *tracer) set(i int, fn func(*span)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	fn(&t.spans[i])
}

// mallocs reads the cumulative heap allocation count. ReadMemStats is
// exact (it flushes every P's cache), unlike runtime/metrics.
func (t *tracer) mallocs() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	runtime.ReadMemStats(&t.ms)
	return int64(t.ms.Mallocs)
}

// counted runs fn inside a span that also records its allocations,
// and returns the span's index (-1 on a nil tracer).
func (t *tracer) counted(name string, req, parent int, fn func()) int {
	if t == nil {
		fn()
		return -1
	}
	before := t.mallocs()
	i := t.begin(name, req, parent)
	fn()
	t.end(i)
	allocs := t.mallocs() - before
	t.set(i, func(s *span) { s.Allocs = allocs })
	return i
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, req, parent int, fn func()) {
	i := t.begin(name, req, parent)
	fn()
	t.end(i)
}

// selfTimes returns each span's duration minus the time its direct
// children cover, in nanoseconds.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// layer summarizes the spans of one name: the median self time in
// microseconds and the median allocation count. Replay spans win over
// probe spans when both exist.
type layer struct {
	us, allocs float64
	probe      bool
}

func (t *tracer) layers() map[string]layer {
	self := t.selfTimes()
	type acc struct{ us, allocs []float64 }
	replay, probe := map[string]*acc{}, map[string]*acc{}
	for i, s := range t.spans {
		m := replay
		if s.Probe {
			m = probe
		}
		a := m[s.Name]
		if a == nil {
			a = &acc{}
			m[s.Name] = a
		}
		a.us = append(a.us, float64(self[i])/1e3)
		if s.Allocs >= 0 {
			a.allocs = append(a.allocs, float64(s.Allocs))
		}
	}
	out := map[string]layer{}
	for name, a := range probe {
		out[name] = layer{us: median(a.us), allocs: median(a.allocs), probe: true}
	}
	for name, a := range replay {
		out[name] = layer{us: median(a.us), allocs: median(a.allocs)}
	}
	return out
}

// write saves every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return errors.Join(err, f.Close())
		}
	}
	if err := w.Flush(); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

// median and quantile of a sample; 0 for an empty one.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// Linear interpolation between closest ranks.
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
