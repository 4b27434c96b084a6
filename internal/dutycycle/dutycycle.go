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
	"encoding/binary"
	"fmt"
	"math/bits"

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

// maxOffsetTableEntries bounds an OffsetTable's schedule at 2^23 (node,
// cycle) pairs, well above the paper's deployments (n = 1000 at the default
// 1024 cycles is 1M) and far below what a hostile cycle count in a decoded
// instance could demand; maxOffsetTableWords caps the table itself at 16 MB.
const (
	maxOffsetTableEntries = 1 << 23
	maxOffsetTableWords   = 1 << 21
)

// OffsetTable is a Uniform schedule's wake offsets, precomputed once and
// bit-sliced so the mean CWT of every directed edge is a few popcounts per
// 64 cycles instead of two seeded draws per cycle. For every 64-cycle word
// a node's row holds ⌈log₂ r⌉ bit planes of offset(u, c), then the same
// planes of offset(u, c+1) (the last cycle wraps to cycle 0), and the row
// ends in Σ_c offset(u, c). The table is immutable once built, so MeanCWT
// is safe for concurrent use.
type OffsetTable struct {
	r      int
	cycles int
	bits   int    // planes per offset: ⌈log₂ r⌉
	words  int    // 64-cycle words per row
	last   uint64 // valid cycles of a row's last word
	// rows is node-major, rowLen = words·2·bits + 1 words per node.
	rows []uint64
}

// OffsetTable builds the schedule's offset table, or returns nil when it
// cannot be represented — r above 65536, more than 2^23 (node, cycle)
// pairs or a table above 16 MB — and callers must fall back to the generic
// MeanCWT scan.
func (s *Uniform) OffsetTable() *OffsetTable {
	n := len(s.seeds)
	if s.r > 1<<16 || s.cycles+1 > maxOffsetTableEntries || n > maxOffsetTableEntries/(s.cycles+1) {
		return nil
	}
	t := &OffsetTable{r: s.r, cycles: s.cycles, bits: bits.Len(uint(s.r - 1)), words: (s.cycles + 63) / 64}
	t.last = ^uint64(0) >> (63 - uint(s.cycles-1)&63)
	b, stride, rowLen := t.bits, 2*t.bits, t.rowLen()
	if n > maxOffsetTableWords/rowLen {
		return nil
	}
	t.rows = make([]uint64, n*rowLen)
	wrap := uint(s.cycles-1) & 63
	for u := 0; u < n; u++ {
		row := t.rows[u*rowLen : (u+1)*rowLen]
		sum := 0
		for i := 0; i < t.words; i++ {
			// The word's offsets as low and high bytes: one multiply
			// gathers bit k of eight offsets into the next byte of plane k,
			// filled from the top cycles down.
			var lo, hi [64]byte
			for j := range min(64, s.cycles-64*i) {
				o := s.periodOffset(u, 64*i+j)
				sum += o
				lo[j], hi[j] = byte(o), byte(o>>8)
			}
			planes := row[i*stride:][:b]
			for g := len(lo) - 8; g >= 0; g -= 8 {
				x, y := binary.LittleEndian.Uint64(lo[g:]), binary.LittleEndian.Uint64(hi[g:])
				for k := range planes {
					if k == 8 {
						x = y
					}
					planes[k] = planes[k]<<8 | (x&0x0101_0101_0101_0101)*gatherBytes>>56
					x >>= 1
				}
			}
		}
		// The successor planes are the offset planes shifted down one
		// cycle, carrying across words; the last cycle's successor is
		// cycle 0 of the next period.
		for i := 0; i < t.words; i++ {
			word := row[i*stride:][:stride]
			for k := 0; k < b; k++ {
				next := word[k] >> 1
				if i+1 < t.words {
					next |= row[(i+1)*stride+k] << 63
				} else {
					next |= (row[k] & 1) << wrap
				}
				word[b+k] = next
			}
		}
		row[rowLen-1] = uint64(sum)
	}
	return t
}

// gatherBytes moves bit 0 of each byte j of a word to bit 56+j of the
// product; no partial products collide, so nothing carries.
const gatherBytes = 0x0102_0408_1020_4080

func (t *OffsetTable) rowLen() int { return t.words*2*t.bits + 1 }

// MeanCWT returns MeanCWT(s, u, v) for the schedule the table was built
// from, bit for bit. In cycle c, u wakes at offset ou[c]; v's next wake
// strictly after it is ov[c] in the same cycle when ou[c] < ov[c], and
// otherwise ov[c+1] in the next cycle, r + ov[c+1] − ov[c] slots later.
// Over the cycles M = {c : ou[c] ≥ ov[c]} the wait sum is therefore
//
//	Σ ov − Σ ou + r·|M| + Σ_{c∈M} ov[c+1] − Σ_{c∈M} ov[c],
//
// where the row sums give the first two terms, a bit-sliced comparator
// (lt/eq masks from the top plane down) gives M per 64 cycles, and each
// masked sum is Σ_k 2^k·popcount(plane_k & M). The integer sum is divided
// once, exactly as the generic scan does.
//
//mlbs:hotpath -- runs once per directed edge Dijkstra can use in every duty-cycle E-model build
func (t *OffsetTable) MeanCWT(u, v int) float64 {
	b, stride, rowLen := t.bits, 2*t.bits, t.rowLen()
	ru := t.rows[u*rowLen : (u+1)*rowLen]
	rv := t.rows[v*rowLen : (v+1)*rowLen]
	inM, diff := 0, 0
	for i, mask := 0, ^uint64(0); i < t.words; i++ {
		ou := ru[i*stride:][:b]
		ov := rv[i*stride:][:len(ou)]
		nv := rv[i*stride+b:][:len(ou)]
		lt, eq := uint64(0), ^uint64(0)
		for k := len(ou) - 1; k >= 0; k-- {
			a, c := ou[k], ov[k]
			lt |= eq &^ a & c
			eq &^= a ^ c
		}
		if i == t.words-1 {
			mask = t.last
		}
		m := mask &^ lt
		inM += bits.OnesCount64(m)
		for k, c := range ov {
			diff += (bits.OnesCount64(nv[k]&m) - bits.OnesCount64(c&m)) << k
		}
	}
	sum := int(rv[rowLen-1]) - int(ru[rowLen-1]) + t.r*inM + diff
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
