// Package obs is the serving stack's zero-dependency observability layer:
// request-scoped span traces, an always-on flight recorder bounded to the
// last-N and slowest-N requests, and the latency histogram — all
// built so that a request WITHOUT a trace attached pays nothing but a nil
// check at every instrumentation point.
//
// The design splits responsibilities:
//
//   - Trace/Span (this file) collect named phases with monotonic
//     start/end offsets and typed attributes while a request runs. Every
//     method is nil-safe: a nil *Trace or *Span is the disabled tracer,
//     and calls on it are no-ops that neither branch into the tracer nor
//     allocate — which is what keeps the warm-path alloc pin and the
//     golden digests bit-identical when tracing is off.
//   - Recorder (recorder.go) retains finished traces in two bounded
//     buffers and hands out immutable snapshots for /debug/traces.
//   - Histogram (hist.go) is the one latency histogram: 256 log-linear,
//     upper-inclusive atomic buckets (~25% resolution) behind the
//     service's percentiles and every Prometheus _bucket/_sum/_count
//     series, coarsened without loss onto power-of-two edges.
//
// A Trace is safe for handoff across goroutines (the service moves it
// from the request goroutine onto a worker and back): every span
// operation takes the trace's mutex. It is not a high-frequency lock —
// traced requests record on the order of ten spans.
package obs

import (
	"context"
	"sync"
	"time"
)

// attrKind discriminates the typed attribute payload.
type attrKind uint8

const (
	attrInt attrKind = iota
	attrStr
	attrFloat
	attrBool
)

// attr is one typed span attribute.
type attr struct {
	key  string
	kind attrKind
	num  int64
	f    float64
	str  string
}

// value returns the attribute's payload as the JSON-facing any.
func (a attr) value() any {
	switch a.kind {
	case attrStr:
		return a.str
	case attrFloat:
		return a.f
	case attrBool:
		return a.num != 0
	default:
		return a.num
	}
}

// spanRec is the trace-internal span record: tree structure by parent
// index, times as nanosecond offsets from the trace's start.
type spanRec struct {
	name       string
	parent     int32
	start, end int64
	attrs      []attr
}

// Trace collects the spans of one request. Build with NewTrace, thread
// through context (NewContext/FromContext), close with Finish. The nil
// Trace is the disabled tracer: all methods no-op.
type Trace struct {
	mu       sync.Mutex
	endpoint string
	wall     time.Time // start, wall clock (carries the monotonic reading)
	spans    []spanRec
	finished bool
}

// NewTrace starts a trace whose root span carries the endpoint name.
func NewTrace(endpoint string) *Trace {
	t := &Trace{endpoint: endpoint, wall: time.Now()}
	t.spans = make([]spanRec, 1, 8)
	t.spans[0] = spanRec{name: endpoint, parent: -1}
	return t
}

// Span is a handle onto one span of a trace. The nil Span is the disabled
// span: Child returns nil, attribute setters and End no-op.
type Span struct {
	t *Trace
	i int32
}

// Root returns the trace's root span; nil for the nil trace.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t}
}

// Child starts a sub-span under s. Returns nil (and records nothing) on
// the nil span or a finished trace.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	t := s.t
	t.mu.Lock()
	if t.finished {
		t.mu.Unlock()
		return nil
	}
	idx := int32(len(t.spans))
	t.spans = append(t.spans, spanRec{name: name, parent: s.i, start: int64(time.Since(t.wall))})
	t.mu.Unlock()
	return &Span{t: t, i: idx}
}

// End closes the span at the current monotonic offset. Ending twice keeps
// the first end.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	if !t.finished && t.spans[s.i].end == 0 {
		t.spans[s.i].end = int64(time.Since(t.wall))
	}
	t.mu.Unlock()
}

func (s *Span) set(a attr) {
	if s == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	if !t.finished {
		t.spans[s.i].attrs = append(t.spans[s.i].attrs, a)
	}
	t.mu.Unlock()
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, v int64) { s.set(attr{key: key, kind: attrInt, num: v}) }

// SetStr attaches a string attribute.
func (s *Span) SetStr(key, v string) { s.set(attr{key: key, kind: attrStr, str: v}) }

// SetFloat attaches a float attribute.
func (s *Span) SetFloat(key string, v float64) { s.set(attr{key: key, kind: attrFloat, f: v}) }

// SetBool attaches a boolean attribute.
func (s *Span) SetBool(key string, v bool) {
	var n int64
	if v {
		n = 1
	}
	s.set(attr{key: key, kind: attrBool, num: n})
}

// TraceSnapshot is the immutable export of a finished trace — the JSON
// schema /debug/traces serves and mlb-load -trace decodes. Nothing in a
// snapshot is ever mutated after Finish returns it; the Recorder hands
// the same pointer to every reader.
type TraceSnapshot struct {
	Endpoint   string       `json:"endpoint"`
	Digest     string       `json:"digest,omitempty"`
	Start      time.Time    `json:"start"`
	DurationNs int64        `json:"duration_ns"`
	Error      string       `json:"error,omitempty"`
	Spans      int          `json:"spans"`
	Root       SpanSnapshot `json:"root"`
}

// SpanSnapshot is one exported span: offsets relative to the trace start,
// attributes flattened to a JSON object, children in start order.
type SpanSnapshot struct {
	Name       string         `json:"name"`
	StartNs    int64          `json:"start_ns"`
	DurationNs int64          `json:"duration_ns"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []SpanSnapshot `json:"children,omitempty"`
}

// Finish closes the trace and builds its immutable snapshot. digest and
// errMsg annotate the snapshot (either may be empty). Spans still open
// are closed at the trace's end. Finish is idempotent in effect but
// should be called once; later calls return nil. The nil trace returns
// nil.
func (t *Trace) Finish(digest, errMsg string) *TraceSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.finished {
		return nil
	}
	t.finished = true
	total := int64(time.Since(t.wall))
	for i := range t.spans {
		if t.spans[i].end == 0 {
			t.spans[i].end = total
		}
	}

	// Materialize the parent-indexed flat records into a tree. Children
	// are appended in record order, which is start order.
	nodes := make([]SpanSnapshot, len(t.spans))
	kids := make([][]int, len(t.spans))
	for i, r := range t.spans {
		nodes[i] = SpanSnapshot{Name: r.name, StartNs: r.start, DurationNs: r.end - r.start}
		if len(r.attrs) > 0 {
			m := make(map[string]any, len(r.attrs))
			for _, a := range r.attrs {
				m[a.key] = a.value()
			}
			nodes[i].Attrs = m
		}
		if r.parent >= 0 {
			kids[r.parent] = append(kids[r.parent], i)
		}
	}
	var build func(i int) SpanSnapshot
	build = func(i int) SpanSnapshot {
		n := nodes[i]
		for _, c := range kids[i] {
			n.Children = append(n.Children, build(c))
		}
		return n
	}
	return &TraceSnapshot{
		Endpoint:   t.endpoint,
		Digest:     digest,
		Start:      t.wall,
		DurationNs: total,
		Error:      errMsg,
		Spans:      len(t.spans),
		Root:       build(0),
	}
}

// ctxKey keys the trace in a context.
type ctxKey struct{}

// NewContext returns ctx carrying the trace; requests planned under it
// record their phases into t.
func NewContext(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the trace carried by ctx, or nil — the disabled
// tracer — when none is attached. The lookup allocates nothing.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}
