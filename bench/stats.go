package main

import (
	"slices"
	"time"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it, so p99 needs 1000 samples and p50
// needs 20. A tail percentile read off fewer samples is one outlier wide.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// sorted and whether the percentile rule allows reporting it.
func percentile(sorted []float64, p int) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := (p*n + 99) / 100 // ceil(p·n/100), 1-based
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// maxChunks bounds chunkedPercentile's chunk count.
const maxChunks = 5

// chunkedPercentile reads the p-th percentile of samples in request order
// robustly: it cuts them into up to maxChunks consecutive chunks, each
// large enough for the percentile rule, and returns the median of the
// chunks' percentiles. A host stall of a few hundred milliseconds then
// moves one chunk's tail, not the reported one.
func chunkedPercentile(ordered []float64, p int) (float64, bool) {
	need := (minBeyond*100 + 99 - p) / (100 - p) // fewest samples the rule accepts
	k := min(maxChunks, len(ordered)/need)
	if k < 2 {
		s := sample{v: slices.Clone(ordered)}
		return s.pct(p)
	}
	var per sample
	for c := 0; c < k; c++ {
		chunk := sample{v: slices.Clone(ordered[c*len(ordered)/k : (c+1)*len(ordered)/k])}
		v, _ := chunk.pct(p)
		per.add(v)
	}
	slices.Sort(per.v)
	if k%2 == 1 {
		return per.v[k/2], true
	}
	return (per.v[k/2-1] + per.v[k/2]) / 2, true
}

// sample accumulates values and answers percentile and mean queries.
type sample struct {
	v      []float64
	sorted bool
}

func (s *sample) add(v float64) {
	s.v = append(s.v, v)
	s.sorted = false
}

func (s *sample) addDur(d time.Duration, unit time.Duration) {
	s.add(float64(d) / float64(unit))
}

func (s *sample) n() int { return len(s.v) }

// pct returns the p-th percentile under the percentile rule.
func (s *sample) pct(p int) (float64, bool) {
	if !s.sorted {
		slices.Sort(s.v)
		s.sorted = true
	}
	return percentile(s.v, p)
}

// mean returns the sample mean; false when empty.
func (s *sample) mean() (float64, bool) {
	if len(s.v) == 0 {
		return 0, false
	}
	t := 0.0
	for _, x := range s.v {
		t += x
	}
	return t / float64(len(s.v)), true
}

// ratio returns num/den, and 0 for an empty denominator: a layer that did
// no work this run has a zero share, not an undefined one.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
