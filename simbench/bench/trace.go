package bench

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer, recorded from the benchmark's own
// code around the layer's public function. Spans of one request share
// Trace; Parent is the span that caused this one (0 for a root).
type Span struct {
	Trace  uint64             `json:"trace"`
	ID     uint64             `json:"span"`
	Parent uint64             `json:"parent,omitempty"`
	Tier   string             `json:"tier"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// Tracer holds spans in memory until WriteFile. A nil *Tracer records
// nothing, so untraced runs pay one nil check per call site.
type Tracer struct {
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []Span
}

// NewTracer starts a tracer; span times are nanoseconds since now.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// NewID allocates a span or trace identifier.
func (t *Tracer) NewID() uint64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// Record stores one finished span and returns its id.
func (t *Tracer) Record(trace, parent uint64, tier, name string, start, end time.Time, attrs map[string]float64) uint64 {
	if t == nil {
		return 0
	}
	id := t.NewID()
	s := Span{Trace: trace, ID: id, Parent: parent, Tier: tier, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Attrs: attrs}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// Len is the number of spans recorded.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// WriteFile writes the spans as JSON lines, one span per line.
func (t *Tracer) WriteFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	return w.Flush()
}
