package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestTraceSpanTree(t *testing.T) {
	tr := NewTrace("/v1/plan")
	root := tr.Root()
	rs := root.Child("resolve")
	rs.SetInt("nodes", 150)
	rs.End()
	cs := root.Child("cache")
	cs.SetBool("hit", false)
	ss := cs.Child("search")
	ss.SetStr("scheduler", "G-OPT")
	ss.SetInt("expanded", 1234)
	ss.SetFloat("frac", 0.5)
	ss.End()
	cs.End()
	snap := tr.Finish("abc123", "")
	if snap == nil {
		t.Fatal("Finish returned nil for a live trace")
	}
	if snap.Endpoint != "/v1/plan" || snap.Digest != "abc123" || snap.Spans != 4 {
		t.Fatalf("snapshot header: %+v", snap)
	}
	if len(snap.Root.Children) != 2 {
		t.Fatalf("root children: %d", len(snap.Root.Children))
	}
	if snap.Root.Children[0].Name != "resolve" || snap.Root.Children[1].Name != "cache" {
		t.Fatalf("child order: %+v", snap.Root.Children)
	}
	if snap.Root.Children[0].Attrs["nodes"] != int64(150) {
		t.Fatalf("int attr: %v", snap.Root.Children[0].Attrs)
	}
	cache := snap.Root.Children[1]
	if cache.Attrs["hit"] != false {
		t.Fatalf("bool attr: %v", cache.Attrs)
	}
	if len(cache.Children) != 1 || cache.Children[0].Name != "search" {
		t.Fatalf("nesting lost: %+v", cache)
	}
	search := cache.Children[0]
	if search.Attrs["scheduler"] != "G-OPT" || search.Attrs["expanded"] != int64(1234) || search.Attrs["frac"] != 0.5 {
		t.Fatalf("search attrs: %v", search.Attrs)
	}
	if search.StartNs < cache.StartNs || search.DurationNs < 0 {
		t.Fatalf("span timing: search %d+%d, cache %d", search.StartNs, search.DurationNs, cache.StartNs)
	}
	// Finishing twice returns nil, and spans on a finished trace no-op.
	if tr.Finish("x", "") != nil {
		t.Fatal("second Finish returned a snapshot")
	}
	if root.Child("late") != nil {
		t.Fatal("Child on a finished trace returned a live span")
	}
}

// TestNilTraceNoops pins the disabled path: every operation on the nil
// tracer is a no-op AND allocation-free — the property that keeps the
// service's warm-path alloc pin intact when no trace is attached.
func TestNilTraceNoops(t *testing.T) {
	var tr *Trace
	allocs := testing.AllocsPerRun(100, func() {
		root := tr.Root()
		sp := root.Child("x")
		sp.SetInt("k", 1)
		sp.SetStr("s", "v")
		sp.SetBool("b", true)
		sp.End()
		if tr.Finish("d", "") != nil {
			t.Fatal("nil trace produced a snapshot")
		}
		var rec *Recorder
		rec.Record(nil)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocated %.1f/op, want 0", allocs)
	}
}

func TestContextRoundTrip(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context carried a trace")
	}
	tr := NewTrace("x")
	ctx := NewContext(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("context did not carry the trace")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if FromContext(context.Background()) != nil {
			t.Fatal("trace from nowhere")
		}
	})
	if allocs != 0 {
		t.Fatalf("FromContext on a bare context allocated %.1f/op", allocs)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	tr := NewTrace("/v1/plan")
	sp := tr.Root().Child("search")
	sp.SetInt("expanded", 42)
	sp.End()
	snap := tr.Finish("d1", "")
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var got TraceSnapshot
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Endpoint != snap.Endpoint || got.Spans != snap.Spans || len(got.Root.Children) != 1 {
		t.Fatalf("round trip lost structure: %+v", got)
	}
	// The formatter accepts both the fresh and the decoded form.
	for _, s := range []*TraceSnapshot{snap, &got} {
		out := FormatTrace(s)
		if !strings.Contains(out, "search") || !strings.Contains(out, "expanded=42") {
			t.Fatalf("format output missing span/attr:\n%s", out)
		}
	}
}

func TestHistogramSnapshotAndProm(t *testing.T) {
	var h Histogram
	h.Observe(2 * time.Microsecond) // bucket 2048ns
	h.Observe(2 * time.Microsecond)
	h.Observe(3 * time.Millisecond)
	h.Observe(200 * time.Second) // overflow
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count %d", s.Count)
	}
	wantSum := (2*time.Microsecond + 2*time.Microsecond + 3*time.Millisecond + 200*time.Second).Nanoseconds()
	if s.SumNs != wantSum {
		t.Fatalf("sum %d want %d", s.SumNs, wantSum)
	}
	if last := s.CumCounts[len(s.CumCounts)-1]; last != 3 {
		t.Fatalf("finite cumulative %d, want 3 (one sample overflows)", last)
	}
	for i := 1; i < len(s.CumCounts); i++ {
		if s.CumCounts[i] < s.CumCounts[i-1] {
			t.Fatalf("cumulative counts not monotone at %d", i)
		}
	}
	var b bytes.Buffer
	WritePromHistogram(&b, "x_seconds", "help text", `endpoint="/v1/plan"`, s)
	out := b.String()
	for _, want := range []string{
		"# HELP x_seconds help text",
		"# TYPE x_seconds histogram",
		`x_seconds_bucket{endpoint="/v1/plan",le="+Inf"} 4`,
		`x_seconds_sum{endpoint="/v1/plan"}`,
		`x_seconds_count{endpoint="/v1/plan"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
	// Unlabeled form and the scalar helpers.
	b.Reset()
	WritePromHistogram(&b, "y_seconds", "h", "", s)
	if !strings.Contains(b.String(), `y_seconds_bucket{le="+Inf"} 4`) || !strings.Contains(b.String(), "y_seconds_sum ") {
		t.Fatalf("unlabeled prom output:\n%s", b.String())
	}
	b.Reset()
	WritePromCounter(&b, "c_total", "c", 7)
	WritePromGauge(&b, "g", "g", 9)
	if !strings.Contains(b.String(), "# TYPE c_total counter\nc_total 7") ||
		!strings.Contains(b.String(), "# TYPE g gauge\ng 9") {
		t.Fatalf("scalar prom output:\n%s", b.String())
	}
}

// TestHistogramObserveAllocs pins the metrics hot path: observing is
// allocation-free.
func TestHistogramObserveAllocs(t *testing.T) {
	var h Histogram
	allocs := testing.AllocsPerRun(100, func() { h.Observe(time.Millisecond) })
	if allocs != 0 {
		t.Fatalf("Observe allocated %.1f/op", allocs)
	}
}
