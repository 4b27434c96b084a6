package obs

import (
	"slices"
	"testing"
	"testing/quick"
	"time"

	"mlbs/internal/rng"
)

// TestHistBucketUpperBoundsObservation is the round-trip property of the
// log-linear histogram: every duration lands in a bucket whose upper edge
// is at least the duration, and (for durations of ≥ 4ns, where the 4
// sub-buckets per octave are active) within 25% relative error — the
// resolution the percentile reporting promises.
func TestHistBucketUpperBoundsObservation(t *testing.T) {
	check := func(ns uint64) {
		d := time.Duration(ns)
		if d < 0 {
			return
		}
		b := bucketOf(int64(d))
		if b < 0 || b >= histBuckets {
			t.Fatalf("d=%v: bucket %d out of range", d, b)
		}
		upper := time.Duration(bucketUpper(b))
		if upper < d {
			t.Fatalf("d=%v: bucket %d upper edge %v below the observation", d, b, upper)
		}
		if ns >= 4 && float64(upper) > 1.25*float64(ns) {
			t.Fatalf("d=%v: upper edge %v exceeds 25%% relative error", d, upper)
		}
	}
	// Dense small values and all power-of-two boundaries ±1.
	for ns := uint64(0); ns < 4096; ns++ {
		check(ns)
	}
	for shift := uint(2); shift < 63; shift++ {
		check(1<<shift - 1)
		check(1 << shift)
		check(1<<shift + 1)
	}
	// Random fuzz across the full range.
	src := rng.New(1)
	for i := 0; i < 20000; i++ {
		check(src.Uint64() >> uint(src.Intn(63)))
	}
	// bucketOf must be monotone non-decreasing, so sorting durations
	// sorts buckets — the property Percentile's rank walk depends on.
	var ds []time.Duration
	for shift := uint(0); shift < 62; shift++ {
		for sub := uint64(0); sub < 4; sub++ {
			ds = append(ds, time.Duration(uint64(1)<<shift+sub<<max(int(shift)-2, 0)))
		}
	}
	src2 := rng.New(2)
	for i := 0; i < 5000; i++ {
		ds = append(ds, time.Duration(src2.Uint64()>>uint(src2.Intn(62)+1)))
	}
	slices.Sort(ds)
	prev := 0
	for _, d := range ds {
		if b := bucketOf(int64(d)); b < prev {
			t.Fatalf("bucketOf not monotone at %v: %d < %d", d, b, prev)
		} else {
			prev = b
		}
	}
}

// TestPercentileOfMatchesRankedObservation: for any observation multiset,
// Percentile(q) must return the upper edge of the bucket holding the
// rank-⌊q·(total−1)⌋ observation (sorted ascending) — i.e. a value ≥ the
// true quantile and within the bucket resolution of it.
func TestPercentileOfMatchesRankedObservation(t *testing.T) {
	f := func(seed uint64, nObs uint16) bool {
		src := rng.New(seed)
		n := int(nObs)%500 + 1
		obs := make([]time.Duration, n)
		var h Histogram
		for i := range obs {
			// Mix magnitudes so buckets across many octaves fill.
			d := time.Duration(src.Uint64() >> uint(src.Intn(60)))
			obs[i] = d
			h.Observe(d)
		}
		total := h.Snapshot().Count
		if total != int64(n) {
			return false
		}
		// Sort by bucket (monotone in duration, so any stable order works).
		buckets := make([]int, n)
		for i, d := range obs {
			buckets[i] = bucketOf(int64(d))
		}
		for i := 1; i < n; i++ { // insertion sort; n ≤ 500
			for j := i; j > 0 && buckets[j] < buckets[j-1]; j-- {
				buckets[j], buckets[j-1] = buckets[j-1], buckets[j]
			}
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			rank := int(q * float64(total-1))
			want := time.Duration(bucketUpper(buckets[rank]))
			if got := h.Percentile(q); got != want {
				t.Logf("seed=%d n=%d q=%v: got %v, want %v", seed, n, q, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileOfEmpty(t *testing.T) {
	var h Histogram
	if got := h.Percentile(0.5); got != 0 {
		t.Fatalf("empty percentile = %v, want 0", got)
	}
}

func TestHistPercentiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	p50 := h.Percentile(0.50)
	p99 := h.Percentile(0.99)
	if p50 < 400*time.Microsecond || p50 > 700*time.Microsecond {
		t.Errorf("p50 = %v, want ≈ 500µs", p50)
	}
	if p99 < 900*time.Microsecond || p99 > 1300*time.Microsecond {
		t.Errorf("p99 = %v, want ≈ 990µs", p99)
	}
	if c := h.Snapshot().Count; c != 1000 {
		t.Errorf("count = %d", c)
	}
}

// TestSnapshotCumCountsExact is the Prometheus contract of Snapshot: for
// any observations — random durations plus every exact power of two and
// its neighbours ±1ns — CumCounts[i] is exactly the number of
// observations ≤ UppersNs[i], and Count and SumNs cover them all. An
// observation of exactly 2^e ns belongs under le=2^e, not the next edge.
func TestSnapshotCumCountsExact(t *testing.T) {
	f := func(seed uint64, nObs uint16) bool {
		src := rng.New(seed)
		var ds []time.Duration
		for e := uint(0); e < 63; e++ {
			p := int64(1) << e
			ds = append(ds, time.Duration(p-1), time.Duration(p), time.Duration(p+1))
		}
		for i := int(nObs) % 500; i > 0; i-- {
			ds = append(ds, time.Duration(src.Uint64()>>uint(src.Intn(63)+1)))
		}
		var h Histogram
		var sum int64
		for _, d := range ds {
			h.Observe(d)
			sum += int64(d)
		}
		s := h.Snapshot()
		if s.Count != int64(len(ds)) || s.SumNs != sum || len(s.CumCounts) != len(s.UppersNs) {
			t.Logf("seed=%d: count %d sum %d, want %d %d", seed, s.Count, s.SumNs, len(ds), sum)
			return false
		}
		for i, edge := range s.UppersNs {
			var want int64
			for _, d := range ds {
				if int64(d) <= edge {
					want++
				}
			}
			if s.CumCounts[i] != want {
				t.Logf("seed=%d le=%dns: cumulative %d, want %d", seed, edge, s.CumCounts[i], want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
