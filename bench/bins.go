package main

import (
	"cmp"
	"slices"
	"time"
)

// The host-noise filter. On a shared virtual machine the hypervisor takes
// CPU time away (steal) in episodes of seconds to minutes, and every time
// measured during one reads slow. So the window is cut into bins of
// binWidth, the host's steal share is read for each, and the windowed
// timing metrics (throughput, latency, SLO share, CPU per request) are
// taken over the calm bins only. Correctness is judged over every bin.

const (
	binWidth = time.Second
	// calmStealPct is the steal share a bin may show and still count as
	// calm: four 10 ms clock ticks of two CPUs in one second.
	calmStealPct = 2
)

// bin is one binWidth of the window.
type bin struct {
	stealPct  float64 // share of the host's CPU time stolen
	serverCPU time.Duration
}

// sampleBins reads the host's steal and the server's CPU time at every bin
// boundary of the window that starts at start and lasts dur.
func sampleBins(srv *server, start time.Time, dur time.Duration) ([]bin, error) {
	steal0, total0 := hostCPU()
	cpu0, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	bins := make([]bin, (dur+binWidth-1)/binWidth)
	for k := range bins {
		time.Sleep(time.Until(start.Add(time.Duration(k+1) * binWidth)))
		steal, total := hostCPU()
		cpu, err := srv.cpuTime()
		if err != nil {
			return nil, err
		}
		bins[k] = bin{stealPct: 100 * ratio(float64(steal-steal0), float64(total-total0)), serverCPU: cpu - cpu0}
		steal0, total0, cpu0 = steal, total, cpu
	}
	return bins, nil
}

// binOf is the bin a request sent or due at `at` falls in.
func binOf(at time.Duration, nbins int) int {
	return min(int(at/binWidth), nbins-1)
}

// calmBins marks the bins the timing metrics are taken over, calmest
// first: the calmer half, every bin with at most calmStealPct, and further
// bins while the kept ones hold fewer than the p99 rule's samples. samples
// counts each bin's successful requests. In a calm window every bin is kept.
func calmBins(bins []bin, samples []int) []bool {
	need := minBeyond * 100 // samples the percentile rule needs for p99
	order := make([]int, len(bins))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(bins[a].stealPct, bins[b].stealPct) })
	keep := make([]bool, len(bins))
	kept := 0
	for i, k := range order {
		if 2*i >= len(bins) && bins[k].stealPct > calmStealPct && kept >= need {
			break
		}
		keep[k] = true
		kept += samples[k]
	}
	return keep
}
