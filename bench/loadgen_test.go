package main

import (
	"bytes"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n, p   int
		want   float64
		report bool
	}{
		{1000, 99, 990, true},
		{999, 99, 990, false},
		{20, 50, 10, true},
		{19, 50, 10, false},
		{100, 90, 90, true},
	} {
		v, ok := percentile(seq(c.n), c.p)
		if v != c.want || ok != c.report {
			t.Errorf("p%d of %d samples = %v, %v; want %v, %v", c.p, c.n, v, ok, c.want, c.report)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples reported")
	}
}

// TestOpenLoopTimesFromDueTime stalls a fake server once, for 100 ms,
// under an open loop of 5000 req/s. Requests due during the stall are
// sent late; their latency must run from the due time and include the
// wait, and loadgen.lag_p99_ms must see it, while the send-to-response
// time stays small.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const (
		n          = 1500
		gap        = 200 * time.Microsecond
		stallAfter = 60 * time.Millisecond
		stall      = 100 * time.Millisecond
		slack      = 5 * time.Millisecond
	)
	list := make([]request, n)
	for i := range list {
		list[i] = request{due: time.Duration(i) * gap, body: []byte("{}")}
	}
	// The stall is a window of wall-clock time, counted from the first
	// send (request 0, due at once): a send made inside it returns at its
	// end.
	var once sync.Once
	var stallStart time.Time
	send := func(r *request, buf *bytes.Buffer) (int, error) {
		once.Do(func() { stallStart = time.Now().Add(stallAfter) })
		if now := time.Now(); now.After(stallStart) && now.Before(stallStart.Add(stall)) {
			time.Sleep(time.Until(stallStart.Add(stall)))
		}
		buf.Reset()
		buf.WriteString(`{"elapsed_ns": 1}`)
		return 200, nil
	}
	rec := newRecorder(false)
	drive(stream{list: list}, send, time.Now(), 0, 0, rec)

	resps := rec.responses()
	if len(resps) != n {
		t.Fatalf("%d responses, want %d", len(resps), n)
	}
	var lag sample
	for _, r := range resps {
		lag.addDur(r.lag, time.Millisecond)
		due := list[r.idx].due
		// Requests due in the first half of the stall waited at least
		// the rest of it.
		if due > stallAfter+slack && due < stallAfter+stall/2 {
			if waited := stallAfter + stall - due; r.lat < waited-slack {
				t.Errorf("request %d: latency %v does not include the stall (≥ %v)", r.idx, r.lat, waited)
			}
		}
		// Sent after the stall, it took no time on the wire: timing from
		// the send would hide the wait entirely.
		if due == stallAfter+stall/2 && (r.rtt > 10*time.Millisecond || r.lat < stall/2-slack) {
			t.Errorf("request %d: rtt %v, latency %v; want a short rtt and a long latency", r.idx, r.rtt, r.lat)
		}
	}
	p99, ok := lag.pct(99)
	if !ok || p99 < 50 {
		t.Errorf("lag p99 = %v ms (reported %v), want the stall (≥ 50 ms)", p99, ok)
	}
}

func TestSplitElapsed(t *testing.T) {
	body := []byte("{\n \"digest\": \"ab\",\n \"elapsed_ns\": 12345,\n \"x\": 1\n}")
	d, head, tail := splitElapsed(body)
	if d != 12345 {
		t.Fatalf("elapsed %v", d)
	}
	if got := string(head) + string(tail); got != "{\n \"digest\": \"ab\",\n \"elapsed_ns\": ,\n \"x\": 1\n}" {
		t.Fatalf("body without elapsed: %q", got)
	}
}

// TestChunkedPercentileIgnoresOneStall puts a stall's worth of slow
// samples in one fifth of a window: the plain p99 reports the stall, the
// chunked one does not.
func TestChunkedPercentileIgnoresOneStall(t *testing.T) {
	ordered := make([]float64, 5000)
	for i := range ordered {
		ordered[i] = float64(i%100) / 10 // 0..9.9 ms, p99 9.8
		if i >= 1000 && i < 1080 {
			ordered[i] = 300 // 80 requests held up by a stall
		}
	}
	plain, _ := percentile(slices.Sorted(slices.Values(ordered)), 99)
	chunked, ok := chunkedPercentile(ordered, 99)
	if !ok || chunked != 9.8 || plain != 300 {
		t.Fatalf("chunked p99 %v (ok %v), plain p99 %v; want 9.8 and 300", chunked, ok, plain)
	}
	if _, ok := chunkedPercentile(ordered[:999], 99); ok {
		t.Fatal("p99 of 999 samples reported")
	}
}
