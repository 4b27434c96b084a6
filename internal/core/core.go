// Package core implements the paper's primary contribution: minimum
// latency broadcast scheduling with conflict awareness.
//
// Three schedulers are provided, mirroring Algorithm 3:
//
//   - OPT    — the ultimate target: the time counter M evaluated over every
//     maximal conflict-free relay set (Eq. 1, 4, 5, 6), found by
//     memoized branch-and-bound search.
//   - G-OPT  — the same search restricted to the greedy color classes of
//     Algorithm 1 (Eq. 2, 3, 7, 8).
//   - E-model — the practical policy: fire the greedy color whose candidate
//     has the largest quadrant estimate E (Eq. 10), no search.
//
// All three run unchanged in the round-based synchronous system (wake
// schedule AlwaysAwake) and the asynchronous duty-cycle system (any other
// dutycycle.Schedule): the synchronous system is the degenerate duty cycle
// with r = 1, exactly as the paper develops it.
package core

import (
	"errors"
	"fmt"

	"mlbs/internal/bitset"
	"mlbs/internal/color"
	"mlbs/internal/dutycycle"
	"mlbs/internal/graph"
	"mlbs/internal/interference"
)

// MaxChannels bounds Instance.Channels: more orthogonal channels than any
// real radio stack offers would only blow up the per-slot bundle
// enumeration without changing a schedule (λ classes saturate far below
// this).
const MaxChannels = 64

// Instance is one broadcast problem: a topology, the source, the slot at
// which the source initiates (t_s), and the wake schedule.
type Instance struct {
	G      *graph.Graph
	Source graph.NodeID
	Start  int
	Wake   dutycycle.Schedule
	// PreCovered lists nodes that already hold the message at t_s besides
	// the source — multi-source dissemination and the monotonicity
	// experiments use it; leave nil for the paper's single-source setting.
	PreCovered []graph.NodeID
	// Channels is the number of orthogonal frequency channels available to
	// the deployment. 0 and 1 both mean the paper's single shared channel.
	// With K > 1 a slot may carry up to K concurrent relay classes, one per
	// channel: two senders conflict only when they collide in the same slot
	// AND on the same channel (the multi-channel model of Nguyen et al.,
	// arXiv:1810.12130, transplanted to broadcast).
	Channels int
	// SINR selects the physical interference model (Halldórsson & Mitra)
	// instead of the paper's protocol-graph conflicts: receivers decode
	// their strongest in-range sender iff its power clears SINR.Beta
	// against noise plus the summed interference of every other concurrent
	// same-channel sender. Requires distinct node positions. Nil — the
	// default — keeps the paper's model and every historic digest/golden.
	SINR *interference.SINRParams
}

// Oracle binds the interference backend this instance selects into b.
func (in Instance) Oracle(b *interference.Binder) interference.Oracle {
	return b.Bind(in.G, in.SINR)
}

// K returns the effective channel count: max(1, Channels).
func (in Instance) K() int {
	if in.Channels > 1 {
		return in.Channels
	}
	return 1
}

// initialCoverage returns {Source} ∪ PreCovered as a bitset.
func (in Instance) initialCoverage() bitset.Set {
	w := bitset.New(in.G.N())
	w.Add(in.Source)
	for _, u := range in.PreCovered {
		w.Add(u)
	}
	return w
}

// Validate reports whether the instance is well formed and solvable.
func (in Instance) Validate() error {
	switch {
	case in.G == nil:
		return errors.New("core: nil graph")
	case in.Source < 0 || in.Source >= in.G.N():
		return fmt.Errorf("core: source %d outside [0,%d)", in.Source, in.G.N())
	case in.Wake == nil:
		return errors.New("core: nil wake schedule")
	case in.Wake.N() < in.G.N():
		return fmt.Errorf("core: wake schedule covers %d nodes, graph has %d", in.Wake.N(), in.G.N())
	case in.Start < 0:
		return errors.New("core: negative start slot")
	case in.Channels < 0:
		return fmt.Errorf("core: negative channel count %d", in.Channels)
	case in.Channels > MaxChannels:
		return fmt.Errorf("core: %d channels exceeds the limit %d", in.Channels, MaxChannels)
	}
	for _, u := range in.PreCovered {
		if u < 0 || u >= in.G.N() {
			return fmt.Errorf("core: pre-covered node %d outside [0,%d)", u, in.G.N())
		}
	}
	if in.SINR != nil {
		if err := in.SINR.Validate(in.G.N()); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		if !in.G.DistinctPositions() {
			return errors.New("core: SINR interference model requires distinct node positions")
		}
	}
	// An undirected graph reaches every node from the source exactly when
	// it is connected; the graph memoizes that fact for every later caller.
	if !in.G.Connected() {
		return errors.New("core: graph not connected from source; broadcast cannot complete")
	}
	return nil
}

// Sync wraps a graph and source into a round-based synchronous instance
// starting at t_s = 1 (the paper's convention in Tables II and III).
func Sync(g *graph.Graph, source graph.NodeID) Instance {
	return Instance{G: g, Source: source, Start: 1, Wake: dutycycle.AlwaysAwake{Nodes: g.N()}}
}

// Async wraps a graph, source and wake schedule into a duty-cycle instance
// whose start is the source's first wake slot at or after from.
func Async(g *graph.Graph, source graph.NodeID, wake dutycycle.Schedule, from int) Instance {
	return Instance{G: g, Source: source, Start: wake.NextAwake(source, from), Wake: wake}
}

// Advance is one broadcasting advance: the selected color's relays firing
// concurrently at slot T on frequency channel Channel (always 0 in the
// single-channel system) and the nodes they newly cover. In a
// multi-channel schedule several advances may share a slot, one per
// channel in ascending channel order; a node reachable by more than one
// of them is attributed to the lowest channel that covers it.
type Advance struct {
	T       int
	Channel int `json:"Channel,omitempty"`
	Senders []graph.NodeID
	Covered []graph.NodeID
}

// Schedule is a complete conflict-aware broadcast schedule.
type Schedule struct {
	Source   graph.NodeID
	Start    int
	Advances []Advance
}

// End returns the slot of the last advance — the paper's P(A) (the
// recursion M(N, t) = t−1 evaluates to the last firing slot). A schedule
// with no advances (single-node network) ends at Start−1.
func (s *Schedule) End() int {
	if len(s.Advances) == 0 {
		return s.Start - 1
	}
	return s.Advances[len(s.Advances)-1].T
}

// PA returns the paper's P(A) metric: the end time of the broadcast.
func (s *Schedule) PA() int { return s.End() }

// Latency returns the elapsed rounds/slots P(A) − t_s + 1, the quantity
// Theorem 1 bounds by d+2 (sync) and 2r(d+2) (async).
func (s *Schedule) Latency() int { return s.End() - s.Start + 1 }

// Validate replays the schedule against the instance and checks every
// model constraint: advances strictly ordered by (slot, channel) and not
// before t_s, each one a legal firing under the per-slot rules of
// SlotWalker, channels strictly ascending within [0,K) per slot, the
// recorded coverage exactly the walker's reach (N(senders) ∩ W̄ minus what
// lower channels of the same slot already claimed) and never empty, and
// full coverage at the end. The walker's rules are checked before an
// advance's recorded Channel and Covered fields are read.
func (s *Schedule) Validate(in Instance) error {
	if err := in.Validate(); err != nil {
		return err
	}
	n := in.G.N()
	k := in.K()
	var wk SlotWalker
	wk.Reset(in)
	want := bitset.New(n)
	for ai := 0; ai < len(s.Advances); {
		t := s.Advances[ai].T
		if err := wk.Begin(t); err != nil {
			return fmt.Errorf("advance %d at %v", ai, err)
		}
		for prevCh := -1; ai < len(s.Advances) && s.Advances[ai].T == t; ai++ {
			adv := s.Advances[ai]
			reach, err := wk.Fire(adv.Senders)
			if err != nil {
				return fmt.Errorf("advance %d: %v", ai, err)
			}
			if adv.Channel <= prevCh {
				return fmt.Errorf("advance %d: channel %d not above channel %d in slot %d", ai, adv.Channel, prevCh, t)
			}
			if adv.Channel >= k {
				return fmt.Errorf("advance %d: channel %d outside [0,%d)", ai, adv.Channel, k)
			}
			prevCh = adv.Channel
			if len(adv.Senders) == 0 {
				return fmt.Errorf("advance %d has no senders", ai)
			}
			want.Clear()
			for _, v := range adv.Covered {
				want.Add(v)
			}
			if !reach.Equal(want) {
				return fmt.Errorf("advance %d: recorded coverage %v, relays reach %v", ai, want, reach)
			}
			if reach.Empty() {
				return fmt.Errorf("advance %d: covers no new node (lower channels of slot %d claim its whole reach)", ai, t)
			}
		}
		wk.End()
	}
	if c := wk.Covered().Len(); c != n {
		return fmt.Errorf("broadcast incomplete: %d of %d nodes covered", c, n)
	}
	return nil
}

// SlotWalker applies the model's per-slot rules to a schedule one slot at
// a time: the paper's Eq. 1 (a relay holds the message, is awake, has an
// uncovered neighbor, and fires conflict-free with its slot-mates at
// every uncovered node) plus the channel extension's one radio per node
// per slot and at most K advances per slot. Schedule.Validate, the
// anytime improver's candidate replay and churn's prefix classification
// are policies over it, not copies of it; the sim replayer re-executes
// schedules with its own code as the independent referee.
//
// A walk is Reset, then per slot Begin, any number of Fire calls, and End
// to commit the slot's coverage; a slot given up without End commits
// nothing. A warm walker allocates nothing, rejections included: the
// error a call returns is owned by the walker and holds until its next
// failing call. A SlotWalker is not safe for concurrent use.
type SlotWalker struct {
	in      Instance
	ib      interference.Binder
	oracle  interference.Oracle
	w       bitset.Set // coverage committed by the slots walked so far
	slotCov bitset.Set // coverage claimed by the current slot's advances
	slotTx  bitset.Set // nodes already transmitting in the current slot
	reach   bitset.Set // the latest Fire result
	prev, t int        // last committed slot; current slot
	fired   int        // advances fired in the current slot
	k       int        // in.K(), the advances a slot may carry
	err     slotError
}

// slotError names the rule a walk broke; it is formatted only when read.
type slotError struct {
	format string
	args   [3]int
	nargs  int
}

func (e *slotError) Error() string {
	args := make([]any, e.nargs)
	for i := range args {
		args[i] = e.args[i]
	}
	return fmt.Sprintf(e.format, args...)
}

func (sw *SlotWalker) fail(format string, args ...int) error {
	sw.err.format = format
	sw.err.nargs = copy(sw.err.args[:], args)
	return &sw.err
}

// Reset starts a walk of in: coverage {Source} ∪ PreCovered, the first
// slot not before in.Start, and in's interference oracle.
func (sw *SlotWalker) Reset(in Instance) {
	n := in.G.N()
	if len(sw.w) != bitset.WordsFor(n) {
		sw.w, sw.slotCov, sw.slotTx, sw.reach = bitset.New(n), bitset.New(n), bitset.New(n), bitset.New(n)
	}
	sw.w.Clear()
	sw.w.Add(in.Source)
	for _, u := range in.PreCovered {
		sw.w.Add(u)
	}
	sw.in, sw.k, sw.prev = in, in.K(), in.Start-1
	sw.oracle = in.Oracle(&sw.ib)
}

// Covered returns the committed coverage W; callers must not modify it.
func (sw *SlotWalker) Covered() bitset.Set { return sw.w }

// Begin opens slot t, which must come after the last committed slot.
func (sw *SlotWalker) Begin(t int) error {
	if t <= sw.prev {
		return sw.fail("t=%d not after t=%d", t, sw.prev)
	}
	sw.t, sw.fired = t, 0
	sw.slotCov.Clear()
	sw.slotTx.Clear()
	return nil
}

// Useful reports whether u has a neighbor outside the committed coverage.
func (sw *SlotWalker) Useful(u graph.NodeID) bool { return sw.in.G.Nbr(u).AnyDifference(sw.w) }

// Fire fires senders as the open slot's next advance and returns its
// reach, N(senders) \ W minus what the slot already claimed, which aliases
// the walker until the next Fire. Every sender must hold the message and
// be awake; an empty reach then fires nothing and comes back with a nil
// error for the caller to judge. Otherwise the rest of SlotWalker's rules
// apply and, on success, the reach is claimed for the slot.
func (sw *SlotWalker) Fire(senders []graph.NodeID) (bitset.Set, error) {
	sw.reach.Clear()
	for _, u := range senders {
		switch {
		case !sw.w.Has(u):
			return nil, sw.fail("sender %d has not received the message", u)
		case !sw.in.Wake.Awake(u, sw.t):
			return nil, sw.fail("sender %d asleep at slot %d", u, sw.t)
		}
		sw.reach.UnionWith(sw.in.G.Nbr(u))
	}
	sw.reach.DifferenceWith(sw.w)
	sw.reach.DifferenceWith(sw.slotCov)
	if sw.reach.Empty() {
		return sw.reach, nil
	}
	if sw.fired++; sw.fired > sw.k {
		return nil, sw.fail("slot %d carries %d advances, instance has %d channels", sw.t, sw.fired, sw.k)
	}
	for _, u := range senders {
		switch {
		case !sw.Useful(u):
			return nil, sw.fail("sender %d has no uncovered neighbor", u)
		case sw.slotTx.Has(u):
			return nil, sw.fail("sender %d transmits on two channels in slot %d", u, sw.t)
		}
		sw.slotTx.Add(u)
	}
	if !sw.oracle.ConflictFree(sw.w, senders) {
		return nil, sw.fail("senders conflict at an uncovered node")
	}
	sw.slotCov.UnionWith(sw.reach)
	return sw.reach, nil
}

// End commits the open slot's claimed coverage.
func (sw *SlotWalker) End() {
	sw.w.UnionWith(sw.slotCov)
	sw.prev = sw.t
}

// SearchStats reports the effort of a search-based scheduler.
type SearchStats struct {
	Expanded    int  // states expanded
	MemoHits    int  // memoized states reused
	MemoEntries int  // distinct states stored
	MovesCapped bool // OPT move enumeration hit its cap somewhere
	// BudgetExhausted reports that the state budget ran out mid-search:
	// some subtree was abandoned with only its admissible bound. A result
	// can still be Exact with this set (fail-high proofs survive
	// truncation), but a non-exact result with it set is a budget
	// artifact, not a structural limit. Omitted from JSON when false so
	// pre-existing encodings keep their exact bytes.
	BudgetExhausted bool `json:",omitempty"`
	// Depths holds the per-depth search profile — indexed by DFS depth —
	// when the search ran with SearchConfig.DepthProfile set (traced
	// requests only). Nil otherwise, and omitted from JSON when nil so
	// pre-existing Result encodings keep their exact bytes.
	Depths []DepthStats `json:",omitempty"`
}

// DepthStats is one depth level of a profiled search: how many states the
// DFS expanded there, how many memo hits short-circuited recursion, and
// how many subtrees each prune class cut.
type DepthStats struct {
	Expanded    int `json:",omitempty"` // states expanded at this depth
	MemoHits    int `json:",omitempty"` // memo lookups that answered here
	BoundPrunes int `json:",omitempty"` // subtrees cut by the admissible lower bound
	BudgetCuts  int `json:",omitempty"` // subtrees abandoned when the budget ran out
}

// Result is a scheduler's output. Exact is true when the scheduler proved
// the schedule optimal for its color scheme (always false for policy
// schedulers, which make no optimality claim).
type Result struct {
	Scheduler string
	Schedule  *Schedule
	PA        int
	Exact     bool
	Stats     SearchStats
	// Generation counts quality re-publications of this plan under its
	// instance digest: 0 is the first plan computed for the key, and each
	// background improver upgrade re-publishes with the next generation.
	// Improved marks a schedule the anytime improver has tightened below
	// its original scheduler's output.
	Generation int
	Improved   bool
}

// Scheduler is the common interface of OPT, G-OPT, E-model and baselines.
type Scheduler interface {
	Name() string
	Schedule(in Instance) (*Result, error)
}

// SyncLatencyBound returns Theorem 1's round-based bound: latency ≤ d+2,
// where d is the source's eccentricity.
func SyncLatencyBound(d int) int { return d + 2 }

// AsyncLatencyBound returns Theorem 1's duty-cycle bound: latency ≤
// 2r(d+2) slots.
func AsyncLatencyBound(r, d int) int { return 2 * r * (d + 2) }

// Ref12LatencyBound returns the accumulation bound of the paper's
// reference [12] (Jiao et al.): up to 17·k·d slots, where k is the maximum
// wait between neighboring nodes — at most 2r for the uniform-per-cycle
// schedule (Section V compares against this bound in Figures 5 and 7).
func Ref12LatencyBound(r, d int) int { return 17 * 2 * r * d }

// nextUsefulSlot returns the earliest slot ≥ t at which some candidate of w
// is awake, together with the candidate list; ok=false when w has no
// candidates at all (complete coverage or a stuck partition). The returned
// list aliases sc's buffers and is valid until sc's next candidate query.
func nextUsefulSlot(g *graph.Graph, wake dutycycle.Schedule, w bitset.Set, t int, sc *color.Scratch) (slot int, cands []graph.NodeID, ok bool) {
	all := sc.Candidates(g, w)
	if len(all) == 0 {
		return 0, nil, false
	}
	best := -1
	for _, u := range all {
		nw := wake.NextAwake(u, t)
		if best < 0 || nw < best {
			best = nw
		}
	}
	return best, sc.FilterAwake(all, wake, best), true
}

// move is one coverage-annotated selection the search can fire in a slot:
// a single color class on the shared channel (bundle nil), or — on a
// multi-channel instance — a bundle of up to K sender-disjoint classes,
// one per channel. covLen is the size of the (joint) advance it would
// produce. A class's advance is the one its move generator already built
// (covered, aliasing the frame's color scratch); a bundle's joint advance
// is materialized into the frame's single active-coverage buffer only when
// the search actually descends into the move, so pruned branches never
// pay for it.
type move struct {
	senders color.Class
	bundle  color.Bundle // nil in the single-channel system
	covered bitset.Set   // the class's advance; nil for a bundle
	covLen  int
}

// compareMoves orders moves by descending coverage, ties by ascending
// lexicographic senders (class by class for bundles) — the deterministic
// branch order of the search.
func compareMoves(a, b move) int {
	if a.covLen != b.covLen {
		return b.covLen - a.covLen
	}
	if a.bundle != nil || b.bundle != nil {
		return color.CompareBundles(a.bundle, b.bundle)
	}
	switch {
	case lessIDs(a.senders, b.senders):
		return -1
	case lessIDs(b.senders, a.senders):
		return 1
	}
	return 0
}

func lessIDs(a, b []graph.NodeID) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
