// Package dutycycle models the asynchronous sleep–wake substrate of
// Section III: every node's *sending* channel is on only at wake slots
// drawn from a predictable pseudo-random sequence with a preset seed, while
// the receiving channel is always on. Neighbors that have learned a node's
// seed and last wake slot can forecast its future wake-ups; the forecasted
// wait is the cycle waiting time CWT t(u,v) of Table I.
//
// All schedules in this package are periodic (Period returns the period in
// slots). Periodicity is what makes the scheduler's memoization key
// (W, t mod Period) sound; the pseudo-random schedule uses a period of many
// cycles, far longer than any broadcast, so repetition never influences
// results.
package dutycycle

import (
	"fmt"

	"mlbs/internal/rng"
)

// Schedule describes when each node's sending channel is on.
type Schedule interface {
	// Awake reports whether node u may transmit at slot t (t ≥ 0).
	Awake(u, t int) bool
	// NextAwake returns the smallest slot ≥ t at which u may transmit.
	NextAwake(u, t int) int
	// Period returns P ≥ 1 with Awake(u, t) == Awake(u, t+P) for all u, t.
	Period() int
	// Rate returns the cycle rate r = |T| / |T(u)| — the average number of
	// slots per wake-up (1 for the always-awake synchronous system).
	Rate() int
	// N returns the number of nodes the schedule covers.
	N() int
}

// AlwaysAwake is the degenerate schedule of the round-based synchronous
// system: every node may transmit in every round.
type AlwaysAwake struct{ Nodes int }

// Awake always reports true.
func (a AlwaysAwake) Awake(u, t int) bool { return true }

// NextAwake returns t itself.
func (a AlwaysAwake) NextAwake(u, t int) int { return t }

// Period returns 1.
func (a AlwaysAwake) Period() int { return 1 }

// Rate returns 1.
func (a AlwaysAwake) Rate() int { return 1 }

// N returns the node count.
func (a AlwaysAwake) N() int { return a.Nodes }

// Uniform is the paper's duty-cycle schedule: each node wakes exactly once
// per cycle of r slots, at an offset drawn uniformly and independently per
// cycle from the node's seeded pseudo-random sequence ("a pseudo-random
// sequence in the uniform distribution with a preset seed", Section III).
// There is no fixed interval between consecutive wake-ups; on average a
// node is active once every r slots.
type Uniform struct {
	r      int
	cycles int // period = r * cycles
	master uint64
	seeds  []uint64
}

// NewUniform builds a Uniform schedule for n nodes with cycle rate r.
// Per-node seeds derive from masterSeed. cycles sets the period in cycles;
// values ≤ 0 select the default of 1024 cycles.
func NewUniform(n, r int, masterSeed uint64, cycles int) *Uniform {
	if n < 0 {
		panic("dutycycle: negative node count")
	}
	if r < 1 {
		panic("dutycycle: cycle rate must be >= 1")
	}
	if cycles <= 0 {
		cycles = 1024
	}
	seeds := make([]uint64, n)
	state := masterSeed
	for i := range seeds {
		seeds[i] = rng.SplitMix64(&state)
	}
	return &Uniform{r: r, cycles: cycles, master: masterSeed, seeds: seeds}
}

// MasterSeed returns the seed the schedule was built from; together with
// (N, Rate, Cycles) it reconstructs the schedule exactly, which is what
// graphio's instance encoding and digest rely on.
func (s *Uniform) MasterSeed() uint64 { return s.master }

// Cycles returns the period length in cycles (Period = Rate × Cycles).
func (s *Uniform) Cycles() int { return s.cycles }

// offset returns the wake offset of node u within cycle c, in [0, r).
func (s *Uniform) offset(u, c int) int { return s.periodOffset(u, c%s.cycles) }

// periodOffset is offset for a cycle c already reduced into [0, cycles).
func (s *Uniform) periodOffset(u, c int) int {
	// One splitmix64 step keyed by (seed_u, cycle) is the node's
	// "predictable pseudo-random sequence": anyone holding seed_u replays it.
	state := s.seeds[u] ^ (uint64(c)+1)*0x9e3779b97f4a7c15
	return int(rng.SplitMix64(&state) % uint64(s.r))
}

// Awake reports whether u transmitting is allowed at slot t.
func (s *Uniform) Awake(u, t int) bool {
	if t < 0 {
		return false
	}
	c := t / s.r
	return t == c*s.r+s.offset(u, c)
}

// NextAwake returns u's first wake slot at or after t.
func (s *Uniform) NextAwake(u, t int) int {
	if t < 0 {
		t = 0
	}
	for c := t / s.r; ; c++ {
		w := c*s.r + s.offset(u, c)
		if w >= t {
			return w
		}
	}
}

// Period returns r × cycles.
func (s *Uniform) Period() int { return s.r * s.cycles }

// Rate returns the cycle rate r.
func (s *Uniform) Rate() int { return s.r }

// N returns the node count.
func (s *Uniform) N() int { return len(s.seeds) }

// Fixed is an explicit schedule: node u is awake exactly at the listed
// slots within each period. It reproduces the paper's worked examples
// (Table IV fixes specific wake slots) and adversarial test cases.
type Fixed struct {
	period int
	rate   int
	slots  [][]int // sorted wake slots of u within [0, period)
}

// NewFixed builds a Fixed schedule. slots[u] lists u's wake slots within
// [0, period); each list must be non-empty and sorted ascending. rate is
// reported by Rate (the paper's r), independent of the lists' cardinality.
func NewFixed(period, rate int, slots [][]int) *Fixed {
	if period < 1 {
		panic("dutycycle: period must be >= 1")
	}
	if rate < 1 {
		panic("dutycycle: rate must be >= 1")
	}
	cp := make([][]int, len(slots))
	for u, list := range slots {
		if len(list) == 0 {
			panic(fmt.Sprintf("dutycycle: node %d has no wake slots", u))
		}
		prev := -1
		for _, t := range list {
			if t < 0 || t >= period {
				panic(fmt.Sprintf("dutycycle: node %d wake slot %d outside [0,%d)", u, t, period))
			}
			if t <= prev {
				panic(fmt.Sprintf("dutycycle: node %d wake slots not strictly ascending", u))
			}
			prev = t
		}
		cp[u] = append([]int(nil), list...)
	}
	return &Fixed{period: period, rate: rate, slots: cp}
}

// Awake reports whether u is awake at slot t.
func (s *Fixed) Awake(u, t int) bool {
	if t < 0 {
		return false
	}
	tt := t % s.period
	for _, w := range s.slots[u] {
		if w == tt {
			return true
		}
		if w > tt {
			return false
		}
	}
	return false
}

// NextAwake returns u's first wake slot at or after t.
func (s *Fixed) NextAwake(u, t int) int {
	if t < 0 {
		t = 0
	}
	base := (t / s.period) * s.period
	tt := t % s.period
	for _, w := range s.slots[u] {
		if w >= tt {
			return base + w
		}
	}
	return base + s.period + s.slots[u][0]
}

// SlotLists returns the per-node wake-slot lists within [0, Period);
// callers must not modify the returned slices.
func (s *Fixed) SlotLists() [][]int { return s.slots }

// Period returns the schedule period.
func (s *Fixed) Period() int { return s.period }

// Rate returns the configured cycle rate.
func (s *Fixed) Rate() int { return s.rate }

// N returns the node count.
func (s *Fixed) N() int { return len(s.slots) }

// PeriodicPhase wakes node u every r slots at a fixed phase φ(u) — the
// regular schedule used in Theorem 1's worst-case analysis (two neighbors
// sharing a schedule force a full-cycle wait per hop).
type PeriodicPhase struct {
	r      int
	phases []int
}

// NewStaggered builds a PeriodicPhase schedule whose phases are drawn
// pseudo-randomly (uniform per node, fixed forever) from masterSeed — the
// classic staggered duty cycle in which every node keeps a constant wake
// offset. Contrast with Uniform, which redraws the offset every cycle.
func NewStaggered(n, r int, masterSeed uint64) *PeriodicPhase {
	if r < 1 {
		panic("dutycycle: cycle rate must be >= 1")
	}
	phases := make([]int, n)
	state := masterSeed
	for u := range phases {
		phases[u] = int(rng.SplitMix64(&state) % uint64(r))
	}
	return NewPeriodicPhase(r, phases)
}

// NewPeriodicPhase builds the schedule; phases[u] must lie in [0, r).
func NewPeriodicPhase(r int, phases []int) *PeriodicPhase {
	if r < 1 {
		panic("dutycycle: cycle rate must be >= 1")
	}
	for u, p := range phases {
		if p < 0 || p >= r {
			panic(fmt.Sprintf("dutycycle: node %d phase %d outside [0,%d)", u, p, r))
		}
	}
	return &PeriodicPhase{r: r, phases: append([]int(nil), phases...)}
}

// Phases returns the per-node wake phases in [0, Rate); callers must not
// modify the returned slice.
func (s *PeriodicPhase) Phases() []int { return s.phases }

// Awake reports whether u is awake at slot t.
func (s *PeriodicPhase) Awake(u, t int) bool { return t >= 0 && t%s.r == s.phases[u] }

// NextAwake returns u's first wake slot at or after t.
func (s *PeriodicPhase) NextAwake(u, t int) int {
	if t < 0 {
		t = 0
	}
	w := (t/s.r)*s.r + s.phases[u]
	if w < t {
		w += s.r
	}
	return w
}

// Period returns r.
func (s *PeriodicPhase) Period() int { return s.r }

// Rate returns r.
func (s *PeriodicPhase) Rate() int { return s.r }

// N returns the node count.
func (s *PeriodicPhase) N() int { return len(s.phases) }

// CWT returns the cycle waiting time t(u,v) of Table I: with u transmitting
// at slot t (so v receives at t), the wait until v can itself transmit —
// the gap to v's next wake slot strictly after t.
func CWT(s Schedule, u, v, t int) int {
	return s.NextAwake(v, t+1) - t
}

// MeanCWT averages CWT(u,v,·) over all of u's wake slots in one period —
// the proactive estimate a node can compute offline from its neighbor's
// seed, used by the asynchronous E-model (Eq. 11). It scans NextAwake
// generically; for a Uniform schedule, OffsetTable.MeanCWT returns the
// same value bit for bit from precomputed wake offsets.
func MeanCWT(s Schedule, u, v int) float64 {
	period := s.Period()
	sum, count := 0, 0
	for t := s.NextAwake(u, 0); t < period; t = s.NextAwake(u, t+1) {
		sum += CWT(s, u, v, t)
		count++
	}
	if count == 0 {
		return float64(period)
	}
	return float64(sum) / float64(count)
}

// maxOffsetTableEntries caps an OffsetTable at 16 MB, well above the paper's
// deployments (n = 1000 at the default 1024 cycles is 1M entries) and far
// below what a hostile cycle count in a decoded instance could demand.
const maxOffsetTableEntries = 1 << 23

// OffsetTable is a Uniform schedule's wake offsets, precomputed once so the
// mean CWT of every directed edge is a pass over two rows instead of two
// seeded draws per cycle. Row u holds offset(u, c) for c in [0, cycles]; the
// last column is the wrap to the next period's first cycle. The table is
// immutable once built, so MeanCWT is safe for concurrent use.
type OffsetTable struct {
	r      int
	cycles int
	// off is row-major, cycles+1 columns per row. uint16 halves the memory
	// of int32 and measured slightly faster over the per-edge loop.
	off []uint16
}

// OffsetTable builds the schedule's offset table, or returns nil when it
// cannot be represented — r above 65536 or more than 2^23 entries — and
// callers must fall back to the generic MeanCWT scan.
func (s *Uniform) OffsetTable() *OffsetTable {
	n, w := len(s.seeds), s.cycles+1
	if s.r > 1<<16 || w > maxOffsetTableEntries || n > maxOffsetTableEntries/w {
		return nil
	}
	off := make([]uint16, n*w)
	for u := 0; u < n; u++ {
		row := off[u*w : (u+1)*w]
		for c := 0; c < s.cycles; c++ {
			row[c] = uint16(s.periodOffset(u, c))
		}
		row[s.cycles] = row[0]
	}
	return &OffsetTable{r: s.r, cycles: s.cycles, off: off}
}

// MeanCWT returns MeanCWT(s, u, v) for the schedule the table was built
// from, bit for bit. In cycle c, u wakes at offset ou[c]; v's next wake
// strictly after it is ov[c] in the same cycle when d = ov[c]−ou[c] > 0,
// and otherwise ov[c+1] in the next cycle, a wait of d + r + ov[c+1] −
// ov[c]. The integer sum is divided once, exactly as the generic scan does.
//
//mlbs:hotpath -- runs once per directed edge of every duty-cycle E-model build
func (t *OffsetTable) MeanCWT(u, v int) float64 {
	w := t.cycles + 1
	ou := t.off[u*w : u*w+t.cycles]
	ov := t.off[v*w : (v+1)*w]
	cur, next := ov[:len(ou)], ov[1:len(ou)+1]
	r, sum := t.r, 0
	for c, o := range ou {
		a := int(cur[c])
		d := a - int(o)
		// (d−1)>>63 is all ones exactly when d ≤ 0: branchless select.
		sum += d + ((d-1)>>63)&(r+int(next[c])-a)
	}
	return float64(sum) / float64(t.cycles)
}

// WakeSlotsInWindow lists u's wake slots in [from, to), mainly for tests
// and trace rendering.
func WakeSlotsInWindow(s Schedule, u, from, to int) []int {
	var out []int
	for t := s.NextAwake(u, from); t < to; t = s.NextAwake(u, t+1) {
		out = append(out, t)
	}
	return out
}
