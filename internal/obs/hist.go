package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"sync/atomic"
	"time"
)

const (
	histSub     = 4 // linear sub-buckets per power-of-two octave
	histBuckets = 64 * histSub
)

// promEdgesNs are the finite Prometheus bucket bounds every Snapshot
// reports: one per power-of-two octave from 1.024µs to ~68.7s. Each is
// exactly the upper bound of a Histogram bucket, so the coarsening onto
// them is lossless. Read-only.
var promEdgesNs = func() []int64 {
	edges := make([]int64, 0, 27)
	for e := 10; e <= 36; e++ {
		edges = append(edges, int64(1)<<e)
	}
	return edges
}()

// Histogram is the serving stack's latency histogram: lock-free and
// log-linear, with 4 linear sub-buckets per power-of-two octave of
// nanoseconds — ~25% relative resolution from 1ns to ~292y in 256 fixed
// atomic counters. Buckets are upper-inclusive, (lower, upper], so every
// power of two is exactly a bucket upper bound. The zero value is ready
// to use, and Observe neither locks nor allocates.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	sum    atomic.Int64 // total observed nanoseconds, for Prometheus _sum
}

// bucketOf returns the bucket holding an observation of ns nanoseconds.
// Indexing by ns-1 makes the buckets upper-inclusive; values ≤ 2 share
// bucket 0.
func bucketOf(ns int64) int {
	v := uint64(1)
	if ns > 2 {
		v = uint64(ns - 1)
	}
	octave := bits.Len64(v) - 1
	sub := 0
	if octave >= 2 {
		sub = int(v>>(octave-2)) & (histSub - 1)
	}
	return octave*histSub + sub
}

// bucketUpper returns the inclusive upper bound of bucket b in
// nanoseconds — the value percentiles report. Bounds in the top octaves
// would overflow int64 (2^62·(1+sub/4)+2^60 crosses 2^63 at sub=3, as do
// all of octave 63's), so they saturate at MaxInt64: nothing observable
// lands above ~292y, and a negative bound would corrupt every percentile
// that walks into those buckets.
func bucketUpper(b int) int64 {
	octave, sub := b/histSub, b%histSub
	if octave < 2 {
		return int64(1) << (octave + 1)
	}
	if octave >= 63 {
		return math.MaxInt64
	}
	upper := int64(1)<<octave + int64(sub+1)<<(octave-2)
	if upper < 0 {
		return math.MaxInt64
	}
	return upper
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	h.counts[bucketOf(ns)].Add(1)
	h.sum.Add(ns)
}

// Merge adds o's observations into h — e.g. folding the hit and miss
// histograms into one distribution for an all-requests percentile.
func (h *Histogram) Merge(o *Histogram) {
	for b := range o.counts {
		if c := o.counts[b].Load(); c != 0 {
			h.counts[b].Add(c)
		}
	}
	h.sum.Add(o.sum.Load())
}

// Percentile returns the upper bound of the bucket holding the
// rank-⌊q·(count−1)⌋ observation: a value at or above the true
// q-quantile and within the bucket resolution of it; 0 when empty.
func (h *Histogram) Percentile(q float64) time.Duration {
	var counts [histBuckets]int64
	var total int64
	for b := range h.counts {
		counts[b] = h.counts[b].Load()
		total += counts[b]
	}
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total-1))
	var cum int64
	for b, c := range counts {
		cum += c
		if cum > rank {
			return time.Duration(bucketUpper(b))
		}
	}
	return time.Duration(bucketUpper(histBuckets - 1))
}

// HistogramSnapshot is a point-in-time cumulative view: CumCounts[i] is
// the number of observations ≤ UppersNs[i]; Count includes the
// observations above the last edge.
type HistogramSnapshot struct {
	UppersNs  []int64
	CumCounts []int64
	Count     int64
	SumNs     int64
}

// Snapshot coarsens the histogram onto the power-of-two Prometheus edges.
// Each edge is a bucket upper bound, so CumCounts[i] is exact.
func (h *Histogram) Snapshot() HistogramSnapshot {
	snap := HistogramSnapshot{
		UppersNs:  promEdgesNs,
		CumCounts: make([]int64, len(promEdgesNs)),
		SumNs:     h.sum.Load(),
	}
	e := 0
	for b := range h.counts {
		for ; e < len(promEdgesNs) && bucketUpper(b) > promEdgesNs[e]; e++ {
			snap.CumCounts[e] = snap.Count
		}
		snap.Count += h.counts[b].Load()
	}
	return snap
}

// promFloat renders a float the way Prometheus clients conventionally do.
func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePromHistogram emits one histogram metric family in Prometheus text
// format: # HELP, # TYPE histogram, the cumulative _bucket series with
// le edges in seconds, the terminal le="+Inf" bucket, _sum (seconds) and
// _count. labels, when non-empty, is a rendered label list without braces
// (`endpoint="/v1/plan"`) merged into every series.
func WritePromHistogram(w io.Writer, name, help, labels string, s HistogramSnapshot) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	WritePromHistogramSeries(w, name, labels, s)
}

// WritePromHistogramSeries emits only the series lines of one histogram —
// no # HELP/# TYPE header — so several label sets of the same family
// (e.g. one per endpoint) can share a single header written once.
func WritePromHistogramSeries(w io.Writer, name, labels string, s HistogramSnapshot) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	for i, upper := range s.UppersNs {
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%s\"} %d\n",
			name, labels, sep, promFloat(float64(upper)/1e9), s.CumCounts[i])
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, s.Count)
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, promFloat(float64(s.SumNs)/1e9))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, s.Count)
}

// WritePromCounter emits one unlabeled counter with HELP/TYPE lines.
func WritePromCounter(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

// WritePromGauge emits one unlabeled gauge with HELP/TYPE lines.
func WritePromGauge(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
}
