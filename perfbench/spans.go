package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// public function it calls. Spans of one request share req; parent is the id
// of the span that caused this one (0 for a root).
type span struct {
	id, parent, req int64
	name            string
	start, end      int64 // ns since the recorder's origin
}

func (s span) dur() float64 { return float64(s.end - s.start) }

// recorder keeps spans in memory for the whole run; nothing is written until
// the run has been measured. A nil *recorder is the untraced state: every
// method is a no-op, so untraced runs pay one pointer comparison per call.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), spans: make([]span, 0, 1<<16)}
}

// now is the recorder clock (ns since origin; 0 when untraced).
func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.origin))
}

// add records a finished span and returns its id (0 when untraced).
func (r *recorder) add(name string, parent, req, start, end int64) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{id: id, parent: parent, req: req, name: name, start: start, end: end})
	r.mu.Unlock()
	return id
}

// snapshot returns the recorded spans (safe once recording goroutines are
// done).
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// link makes every parentless span named child a child of the span named
// parent that belongs to the same request. The HTTP handler wrappers only
// know the request id, so their spans are linked once the run is over.
func (r *recorder) link(child, parent string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	byReq := map[int64]int64{}
	for _, s := range r.spans {
		if s.name == parent && s.req != 0 {
			byReq[s.req] = s.id
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		if s.name == child && s.parent == 0 && s.req != 0 {
			s.parent = byReq[s.req]
		}
	}
}

// layerTimes aggregates spans into per-name durations and self times (a
// span's duration minus the durations of the spans that name it as parent).
// Both maps hold one value per span, in µs.
func layerTimes(spans []span) (dur, self map[string][]float64) {
	childSum := make(map[int64]float64, len(spans))
	for _, s := range spans {
		if s.parent != 0 {
			childSum[s.parent] += s.dur()
		}
	}
	dur = map[string][]float64{}
	self = map[string][]float64{}
	for _, s := range spans {
		dur[s.name] = append(dur[s.name], s.dur()/1e3)
		self[s.name] = append(self[s.name], (s.dur()-childSum[s.id])/1e3)
	}
	return dur, self
}

// writeSpans writes the spans as JSON lines to path (directories created).
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
			s.id, s.parent, s.req, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
