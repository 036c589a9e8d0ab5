package obs

import (
	"sort"
	"sync"
	"time"
)

// The flight recorder: every run gets a Trace at submission, phases append
// Spans as they happen, and GET /v1/runs/{id}/trace replays the timeline.
// Both dimensions are bounded — the recorder retains the newest traces up to
// its capacity (FIFO eviction of the oldest), and a trace caps its span
// count, counting overflow instead of growing — so a long-lived daemon's
// trace memory is O(capacity · maxSpans) no matter how many runs it serves.

// maxSpansPerTrace bounds one trace's timeline. A plain run records a
// handful of spans; a large cluster run records a few per shard, so 1024
// covers hundreds of shards before overflow counting starts.
const maxSpansPerTrace = 1024

// Span is one timed phase of a run. Point events carry Start == End.
type Span struct {
	// Name is the phase: submitted, queued, compile, execute, run, lease,
	// upload, settled, ...
	Name string
	// Worker names the executing node for cluster-side spans.
	Worker string
	// Detail is free-form context (rep range, worker grant, terminal state).
	Detail string
	Start  time.Time
	End    time.Time
}

// Trace is one run's span timeline. Appends are cheap and safe from any
// goroutine (coordinator settle path, local backend, scheduler); the nil
// trace swallows appends so instrumented code needs no guards.
type Trace struct {
	mu      sync.Mutex
	id      string
	run     string
	spans   []Span
	dropped int
}

// ID returns the trace identifier ("" for a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Add appends a span, counting instead of appending beyond the cap.
func (t *Trace) Add(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpansPerTrace {
		t.dropped++
		return
	}
	t.spans = append(t.spans, s)
}

// TraceView is the JSON representation of a timeline, served by
// GET /v1/runs/{id}/trace.
type TraceView struct {
	Trace string `json:"trace"`
	Run   string `json:"run"`
	// DroppedSpans counts spans discarded beyond the per-trace cap.
	DroppedSpans int        `json:"dropped_spans,omitempty"`
	Spans        []SpanView `json:"spans"`
}

// SpanView is one rendered span.
type SpanView struct {
	Name       string  `json:"name"`
	Worker     string  `json:"worker,omitempty"`
	Detail     string  `json:"detail,omitempty"`
	Start      string  `json:"start"`
	End        string  `json:"end"`
	DurationMS float64 `json:"duration_ms"`
}

// View renders the timeline. Spans are sorted by (start, name, worker,
// detail) — concurrent appenders (shards settling in any order) race only
// for slice position, so the sort makes the rendered timeline a pure
// function of the set of spans recorded.
func (t *Trace) View() TraceView {
	if t == nil {
		return TraceView{Spans: []SpanView{}}
	}
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	v := TraceView{Trace: t.id, Run: t.run, DroppedSpans: t.dropped}
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if !a.Start.Equal(b.Start) {
			return a.Start.Before(b.Start)
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Worker != b.Worker {
			return a.Worker < b.Worker
		}
		return a.Detail < b.Detail
	})
	v.Spans = make([]SpanView, len(spans))
	for i, s := range spans {
		v.Spans[i] = SpanView{
			Name:       s.Name,
			Worker:     s.Worker,
			Detail:     s.Detail,
			Start:      s.Start.UTC().Format(time.RFC3339Nano),
			End:        s.End.UTC().Format(time.RFC3339Nano),
			DurationMS: float64(s.End.Sub(s.Start)) / float64(time.Millisecond),
		}
	}
	return v
}

// Recorder is the bounded trace store.
type Recorder struct {
	mu       sync.Mutex
	capacity int
	traces   map[string]*Trace
	order    []string // insertion order, oldest first
}

// NewRecorder returns a recorder retaining up to capacity traces
// (<= 0 selects 512).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = 512
	}
	return &Recorder{capacity: capacity, traces: make(map[string]*Trace)}
}

// Start registers a new trace for a run, evicting the oldest beyond
// capacity. Holders of an evicted *Trace keep using it safely — eviction
// only drops the recorder's own reference.
func (r *Recorder) Start(id, run string) *Trace {
	t := &Trace{id: id, run: run}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.traces[id]; !ok {
		r.order = append(r.order, id)
	}
	r.traces[id] = t
	for len(r.order) > r.capacity {
		delete(r.traces, r.order[0])
		r.order = r.order[1:]
	}
	return t
}
