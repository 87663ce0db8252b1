package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval recorded by the benchmark around a call into
// a layer. Times are nanoseconds since the tracer was created. Parent is
// the ID of the span that caused this one (0 for a root); spans of one
// operation share Op.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     string `json:"op,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs pay one nil check per call site.
type Tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []Span
	// open maps "name\x00op" to the ID of the span currently open under
	// that name for that operation: how an HTTP handler two hops away
	// finds the span that caused it from nothing but the request's key.
	open map[string]int64
}

func newTracer() *Tracer {
	return &Tracer{t0: time.Now(), open: map[string]int64{}}
}

// spanRef is an open span; end closes it. The zero value is inert.
type spanRef struct {
	tr  *Tracer
	idx int
	key string
}

// begin opens a span. parentName, when non-empty, names the span of the
// same operation that caused this one; a missing parent leaves a root.
func (t *Tracer) begin(name, op, parentName string) spanRef {
	if t == nil {
		return spanRef{}
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := Span{ID: int64(len(t.spans) + 1), Op: op, Name: name, Start: now}
	if parentName != "" && op != "" {
		s.Parent = t.open[parentName+"\x00"+op]
	}
	t.spans = append(t.spans, s)
	ref := spanRef{tr: t, idx: len(t.spans) - 1}
	if op != "" {
		ref.key = name + "\x00" + op
		t.open[ref.key] = s.ID
	}
	return ref
}

// beginChild opens a span under a known parent span.
func (t *Tracer) beginChild(name string, parent spanRef) spanRef {
	if t == nil {
		return spanRef{}
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent.idx]
	t.spans = append(t.spans, Span{ID: int64(len(t.spans) + 1), Parent: p.ID, Op: p.Op, Name: name, Start: now})
	return spanRef{tr: t, idx: len(t.spans) - 1}
}

func (r spanRef) end() time.Duration {
	if r.tr == nil {
		return 0
	}
	now := int64(time.Since(r.tr.t0))
	r.tr.mu.Lock()
	defer r.tr.mu.Unlock()
	s := &r.tr.spans[r.idx]
	s.End = now
	if r.key != "" && r.tr.open[r.key] == s.ID {
		delete(r.tr.open, r.key)
	}
	return time.Duration(s.End - s.Start)
}

// snapshot returns the closed spans recorded so far.
func (t *Tracer) snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start && s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes computes each span's self time: its duration minus the part
// of its interval that its child spans cover (children may overlap, as
// the router's concurrent shard calls do, so intervals are merged).
func selfTimes(spans []Span) map[int64]time.Duration {
	kids := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered, hi int64
		hi = s.Start
		for _, c := range cs {
			lo, end := c.Start, c.End
			if lo < hi {
				lo = hi
			}
			if end > s.End {
				end = s.End
			}
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// byName groups durations (self time when self is non-nil) by span name.
func byName(spans []Span, self map[int64]time.Duration) map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for _, s := range spans {
		d := time.Duration(s.End - s.Start)
		if self != nil {
			d = self[s.ID]
		}
		out[s.Name] = append(out[s.Name], d)
	}
	return out
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
