package main

import (
	"slices"
	"testing"
)

func TestCalmBins(t *testing.T) {
	bins := func(steal ...float64) []bin {
		b := make([]bin, len(steal))
		for i, s := range steal {
			b[i].stealPct = s
		}
		return b
	}
	each := func(n, per int) []int {
		s := make([]int, n)
		for i := range s {
			s[i] = per
		}
		return s
	}
	for _, c := range []struct {
		name    string
		bins    []bin
		samples []int
		want    []bool
	}{
		{"calm window keeps every bin", bins(0, 1.5, 2, 0.5), each(4, 500),
			[]bool{true, true, true, true}},
		{"noisy bins beyond the calmer half go", bins(9, 0, 12, 3, 30, 1), each(6, 500),
			[]bool{false, true, false, true, false, true}},
		{"the p99 rule's samples bring back the next calmest", bins(9, 0, 12, 3, 30, 1), each(6, 300),
			[]bool{true, true, false, true, false, true}},
		{"a short window keeps everything", bins(20, 40), each(2, 10),
			[]bool{true, true}},
	} {
		if got := calmBins(c.bins, c.samples); !slices.Equal(got, c.want) {
			t.Errorf("%s: kept %v, want %v", c.name, got, c.want)
		}
	}
}
