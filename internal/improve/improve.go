// Package improve is the anytime schedule improver: it takes any valid
// broadcast schedule — typically the constant-factor approximation, which
// plans in microseconds but overshoots the optimum by an order of
// magnitude on duty-cycled instances — and tightens it under an explicit
// budget with guided local search over variable neighborhoods:
//
//   - tail re-search: re-plan a suffix of the schedule with the
//     branch-and-bound engine (core.Engine on a residual instance whose
//     PreCovered set is the prefix's coverage), seeding the search with
//     the very suffix it has to beat so an accepted move can only be
//     strictly better. The engine rebuilds greedy classes from scratch,
//     so this is also the class re-color move; state budgets escalate as
//     neighborhoods dry up, which is what makes the improver anytime.
//   - slot merge: fire a whole slot group one group earlier — as a sender
//     union on the shared channel, or as extra channels of the earlier
//     slot on multi-channel instances (channel bundle re-pack; dissolved
//     classes free their channel for the newcomers).
//   - shift: retime the final slot group to the earliest slot at which
//     all its senders are awake, compressing duty-cycle wake waits.
//   - sender thinning: every candidate replay — a lenient policy over
//     core.SlotWalker, the per-slot rules Schedule.Validate also walks —
//     drops senders whose whole reach is already covered, so redundant
//     transmissions dissolve as a side effect of any accepted move (and
//     of the initial normalization pass).
//
// The improver is anytime and monotone: its current schedule is always
// valid — every accepted move is re-verified with Schedule.Validate — and
// the objective (end slot, advance count, transmission count) only ever
// decreases lexicographically, so the run can stop at any instant: a
// wall-clock deadline, a move-count budget (the deterministic replay form
// tests pin), or convergence, whichever lands first.
//
// An Improver is NOT safe for concurrent use; give each goroutine its
// own, like the serving layer gives each worker its own core.Engine.
package improve

import (
	"fmt"
	"slices"
	"time"

	"mlbs/internal/bitset"
	"mlbs/internal/core"
	"mlbs/internal/graph"
)

// DefaultSearchBudget is the branch-and-bound state budget of a single
// tail re-search move when Options.SearchBudget is zero. Deliberately
// small: the first full-tail descent at this budget already recovers most
// of the approximation/G-OPT gap, and converged rounds escalate it ×4 up
// to core.DefaultBudget.
const DefaultSearchBudget = 256

// escalationFactor multiplies the tail-search state budget each time
// every neighborhood dries up at the current budget.
const escalationFactor = 4

// shiftScanCap bounds the slots examined by the shift neighborhood; wake
// schedules are periodic, so anything all-awake repeats well within this.
const shiftScanCap = 1024

// Options budgets one Improve call. The zero value runs to convergence.
type Options struct {
	// Deadline bounds wall-clock effort; 0 means no time limit. The clock
	// is checked between moves, so a run may overshoot the deadline by at
	// most one in-flight move (bounded by SearchBudget states).
	Deadline time.Duration
	// MaxMoves bounds candidate evaluations; 0 means no cap. With
	// Deadline == 0 the run never consults the clock and is a
	// deterministic function of (instance, input schedule, MaxMoves,
	// SearchBudget) — the reproducible budget-in-moves form.
	MaxMoves int
	// SearchBudget is the state budget of each tail re-search move;
	// 0 selects DefaultSearchBudget.
	SearchBudget int
	// OnImprove, when non-nil, observes every accepted improvement with
	// the new best schedule and the running stats. The schedule and
	// everything it references are immutable from that point on — the
	// serving layer publishes them to its plan cache generation by
	// generation without copying.
	OnImprove func(*core.Schedule, Stats)
}

// Stats reports one Improve run.
type Stats struct {
	Moves      int  // candidate evaluations consumed (tail searches included)
	Searches   int  // tail re-searches among them
	Accepted   int  // improvements kept
	SlotsSaved int  // input end slot minus output end slot
	Expanded   int  // search states expanded across all tail re-searches
	Exact      bool // output proved optimal over greedy-move schedules
	Converged  bool // every neighborhood dried up before the budget did
	// Per-neighborhood breakdown of the same run: the aggregate counters
	// above are the sums of these four (Moves = ΣAttempted, and so on).
	Norm  MoveStats // input normalization replay
	Tail  MoveStats // branch-and-bound tail re-searches
	Merge MoveStats // slot merges and channel re-packs
	Shift MoveStats // last-group wake-wait retiming
}

// MoveStats is one neighborhood's slice of an Improve run.
type MoveStats struct {
	Attempted  int // candidates evaluated
	Accepted   int // candidates adopted
	SlotsSaved int // end-slot reduction credited to this neighborhood
}

// Improver owns the reusable arenas of the anytime local search: one
// warm core.Engine for tail re-searches, pooled bitsets and the replay
// buffers candidate evaluation runs in. Candidate evaluation allocates
// nothing once the arenas are warm; only accepted moves (rare, bounded
// by the input's latency) materialize fresh schedules.
type Improver struct {
	eng  *core.Engine
	pool *bitset.Pool
	clk  clock // sysClock in production; tests inject a stepped fake

	// walk replays candidates under the instance's own interference
	// oracle: merges and re-packs legal under the graph model may not be.
	walk core.SlotWalker

	keep    []graph.NodeID // kept senders of the advance under replay
	candAdv []core.Advance // move candidate under construction
	candIDs []graph.NodeID // merged-sender backing for slot merges
	pre     []graph.NodeID // residual PreCovered buffer for tail moves
	cuts    []int          // tail cut list buffer
	groups  []int          // start index of each slot group in cur
}

// New returns an empty improver; arenas grow on first use and stay warm.
func New() *Improver {
	imp := &Improver{pool: bitset.NewPool(), clk: sysClock{}}
	imp.eng = core.NewSearch("improve", core.SearchConfig{Moves: core.GreedyMoves}).NewEngine()
	return imp
}

// fixedScheduler replays a precomputed schedule as a search incumbent:
// every tail re-search is seeded with the tail it is trying to beat, so
// the search returns something strictly better or fails high onto it —
// an accepted tail move can never worsen the schedule.
type fixedScheduler struct{ sched *core.Schedule }

func (f fixedScheduler) Name() string { return "improve-incumbent" }

func (f fixedScheduler) Schedule(core.Instance) (*core.Result, error) {
	return &core.Result{Scheduler: f.Name(), Schedule: f.sched, PA: f.sched.PA()}, nil
}

// clock abstracts the wall time behind Options.Deadline so deadline runs
// are testable without sleeping: tests inject a stepped fake and watch
// the budget expire deterministically. sysClock is the only reader of
// real time in this package.
type clock interface {
	now() time.Time
}

// sysClock is the production clock backing every Improver built by New.
type sysClock struct{}

// now reads the wall clock.
//
//mlbs:wallclock -- the single audited wall-clock read backing Options.Deadline
func (sysClock) now() time.Time { return time.Now() }

// budgetState tracks the move/deadline budget of one run. The clock is
// consulted only when a deadline was set, keeping move-budgeted runs
// deterministic.
type budgetState struct {
	clk      clock
	deadline time.Time
	timed    bool
	moves    int // remaining candidate evaluations; < 0 means unlimited
}

func newBudget(opt Options, clk clock) budgetState {
	b := budgetState{clk: clk, moves: -1}
	if opt.MaxMoves > 0 {
		b.moves = opt.MaxMoves
	}
	if opt.Deadline > 0 {
		b.timed = true
		b.deadline = clk.now().Add(opt.Deadline)
	}
	return b
}

func (b *budgetState) exhausted() bool {
	if b.moves == 0 {
		return true
	}
	return b.timed && !b.clk.now().Before(b.deadline)
}

// spend consumes one move; false means the budget ran out first.
func (b *budgetState) spend() bool {
	if b.exhausted() {
		return false
	}
	if b.moves > 0 {
		b.moves--
	}
	return true
}

// state is the current best schedule of one run plus its objective.
// Advances and their inner slices are write-once: accepted moves replace
// the outer slice with freshly materialized advances, never mutate, so
// snapshots handed to OnImprove stay valid forever.
type state struct {
	cur     []core.Advance
	end     int // objective 1: slot of the last advance
	senders int // objective 3: total transmissions
}

// better reports (endA, advA, sendA) < (endB, advB, sendB)
// lexicographically — the improver's acceptance test.
func better(endA, advA, sendA, endB, advB, sendB int) bool {
	if endA != endB {
		return endA < endB
	}
	if advA != advB {
		return advA < advB
	}
	return sendA < sendB
}

func countSenders(advs []core.Advance) int {
	total := 0
	for _, a := range advs {
		total += len(a.Senders)
	}
	return total
}

// regroup rebuilds the slot-group index (start offset of each distinct
// slot) into imp.groups.
func (imp *Improver) regroup(advs []core.Advance) {
	imp.groups = imp.groups[:0]
	for i, a := range advs {
		if i == 0 || a.T != advs[i-1].T {
			imp.groups = append(imp.groups, i)
		}
	}
}

// groupEnd returns the advance index one past group gi.
func (imp *Improver) groupEnd(gi, total int) int {
	if gi+1 < len(imp.groups) {
		return imp.groups[gi+1]
	}
	return total
}

// Improve tightens a valid schedule for in under opt's budget and returns
// the best schedule reached, which is the input when nothing improved.
// The returned schedule always passes Schedule.Validate(in); its end slot
// never exceeds the input's. The input schedule is never mutated.
func (imp *Improver) Improve(in core.Instance, sched *core.Schedule, opt Options) (*core.Schedule, Stats, error) {
	var st Stats
	if err := sched.Validate(in); err != nil {
		return nil, st, fmt.Errorf("improve: input schedule invalid: %w", err)
	}
	if len(sched.Advances) == 0 {
		st.Exact, st.Converged = true, true
		return &core.Schedule{Source: in.Source, Start: in.Start}, st, nil
	}
	s := &state{cur: sched.Advances, end: sched.End(), senders: countSenders(sched.Advances)}
	imp.regroup(s.cur)

	bud := newBudget(opt, imp.clk)
	searchBudget := opt.SearchBudget
	if searchBudget <= 0 {
		searchBudget = DefaultSearchBudget
	}

	// Normalization move: replaying the input thins redundant senders and
	// dissolved advances before any neighborhood runs.
	if bud.spend() {
		st.Moves++
		st.Norm.Attempted++
		if _, err := imp.tryCandidate(in, s, s.cur, &st, &st.Norm, opt); err != nil {
			return nil, st, err
		}
	}

	exactProof := false
	for !bud.exhausted() {
		improvedRound := false

		// Neighborhood 1: tail re-search, coarse to fine. Skipped once the
		// full-tail search has proved the schedule greedy-optimal (only a
		// local move, which escapes the greedy move set, can clear that).
		if !exactProof {
			for _, cut := range imp.tailCuts() {
				if !bud.spend() {
					break
				}
				st.Moves++
				st.Searches++
				st.Tail.Attempted++
				acc, proof, err := imp.tryTail(in, s, cut, searchBudget, &st, opt)
				if err != nil {
					return nil, st, err
				}
				if acc {
					improvedRound = true
					exactProof = proof
					break
				}
				if proof {
					exactProof = true
					break
				}
			}
		}

		// Neighborhood 2: slot merges (and channel re-packs on K > 1).
		if !bud.exhausted() {
			acc, err := imp.sweepMerges(in, s, &bud, &st, opt)
			if err != nil {
				return nil, st, err
			}
			if acc {
				improvedRound = true
				// A local move leaves the greedy move set; any standing
				// optimality proof no longer covers the new schedule.
				exactProof = false
			}
		}

		// Neighborhood 3: retime the last slot group earlier.
		if !bud.exhausted() {
			acc, err := imp.tryShift(in, s, &bud, &st, opt)
			if err != nil {
				return nil, st, err
			}
			if acc {
				improvedRound = true
				exactProof = false
			}
		}

		if bud.exhausted() {
			break
		}
		if improvedRound {
			continue
		}
		if exactProof || searchBudget >= core.DefaultBudget {
			st.Converged = true
			break
		}
		searchBudget *= escalationFactor
		if searchBudget > core.DefaultBudget {
			searchBudget = core.DefaultBudget
		}
	}

	st.Exact = exactProof
	return &core.Schedule{Source: in.Source, Start: in.Start, Advances: s.cur}, st, nil
}

// tailCuts fills imp.cuts with the slot-group indices tail re-searches
// start from this round: the full schedule first (the big win), then the
// second half, then the final quarter.
func (imp *Improver) tailCuts() []int {
	m := len(imp.groups)
	imp.cuts = imp.cuts[:0]
	for _, c := range [...]int{0, m / 2, (3 * m) / 4} {
		if c < m && !slices.Contains(imp.cuts, c) {
			imp.cuts = append(imp.cuts, c)
		}
	}
	return imp.cuts
}

// tryTail re-plans the schedule suffix from slot-group cut onward with
// the branch-and-bound engine on the residual instance (prefix coverage
// as PreCovered), seeded with the current suffix as incumbent. proof
// reports that a full-tail (cut 0) search established greedy-move
// optimality of the resulting schedule.
func (imp *Improver) tryTail(in core.Instance, s *state, cut, searchBudget int, st *Stats, opt Options) (accepted, proof bool, err error) {
	a := imp.groups[cut]
	prefix := s.cur[:a]
	resid := in
	if cut > 0 {
		w := imp.pool.Get(in.G.N())
		w.Add(in.Source)
		for _, u := range in.PreCovered {
			w.Add(u)
		}
		for _, adv := range prefix {
			for _, v := range adv.Covered {
				w.Add(v)
			}
		}
		imp.pre = w.AppendMembers(imp.pre[:0])
		imp.pool.Put(w)
		resid.Start = prefix[len(prefix)-1].T + 1
		resid.PreCovered = imp.pre
	}
	suffix := &core.Schedule{Source: in.Source, Start: resid.Start, Advances: s.cur[a:]}
	res, err := imp.eng.ScheduleWith(resid, core.SearchConfig{
		Moves:     core.GreedyMoves,
		Budget:    searchBudget,
		Incumbent: fixedScheduler{sched: suffix},
	})
	if err != nil {
		return false, false, fmt.Errorf("improve: tail re-search: %w", err)
	}
	st.Expanded += res.Stats.Expanded
	proof = cut == 0 && res.Exact
	newEnd := res.Schedule.End()
	if newEnd >= s.end {
		return false, proof, nil
	}
	merged := make([]core.Advance, 0, len(prefix)+len(res.Schedule.Advances))
	merged = append(merged, prefix...)
	merged = append(merged, res.Schedule.Advances...)
	if err := (&core.Schedule{Source: in.Source, Start: in.Start, Advances: merged}).Validate(in); err != nil {
		return false, false, fmt.Errorf("improve: tail re-search produced an invalid schedule: %w", err)
	}
	imp.adopt(in, s, merged, newEnd, st, &st.Tail, opt)
	return true, proof, nil
}

// sweepMerges tries every slot-merge candidate in deterministic order and
// stops at the first acceptance.
func (imp *Improver) sweepMerges(in core.Instance, s *state, bud *budgetState, st *Stats, opt Options) (bool, error) {
	k := in.K()
	for gi := 1; gi < len(imp.groups); gi++ {
		p, a := imp.groups[gi-1], imp.groups[gi]
		b := imp.groupEnd(gi, len(s.cur))
		tp := s.cur[p].T

		// Whole-group merge: group gi joins group gi−1's slot.
		if bud.spend() {
			st.Moves++
			st.Merge.Attempted++
			cand := imp.candAdv[:0]
			cand = append(cand, s.cur[:p]...)
			if k == 1 {
				// Single channel: one advance per group; merge the sender
				// sets into one class.
				imp.candIDs = append(imp.candIDs[:0], s.cur[p].Senders...)
				imp.candIDs = append(imp.candIDs, s.cur[a].Senders...)
				slices.Sort(imp.candIDs)
				cand = append(cand, core.Advance{T: tp, Senders: imp.candIDs})
			} else {
				cand = append(cand, s.cur[p:a]...)
				for _, adv := range s.cur[a:b] {
					adv.T = tp
					cand = append(cand, adv)
				}
			}
			cand = append(cand, s.cur[b:]...)
			imp.candAdv = cand
			acc, err := imp.tryCandidate(in, s, cand, st, &st.Merge, opt)
			if err != nil || acc {
				return acc, err
			}
		} else {
			return false, nil
		}

		// Single-class re-pack: on K > 1, move one class of group gi onto a
		// free channel of group gi−1, leaving its siblings in place.
		if k > 1 && b-a > 1 {
			for j := a; j < b; j++ {
				if !bud.spend() {
					return false, nil
				}
				st.Moves++
				st.Merge.Attempted++
				cand := imp.candAdv[:0]
				cand = append(cand, s.cur[:a]...)
				moved := s.cur[j]
				moved.T = tp
				cand = append(cand, moved)
				cand = append(cand, s.cur[a:j]...)
				cand = append(cand, s.cur[j+1:]...)
				// Keep slot order: the moved advance belongs to group gi−1,
				// which ends at index a in the original layout — inserting it
				// at position a keeps advances sorted by slot.
				imp.candAdv = cand
				acc, err := imp.tryCandidate(in, s, cand, st, &st.Merge, opt)
				if err != nil || acc {
					return acc, err
				}
			}
		}
	}
	return false, nil
}

// tryShift retimes the last slot group to the earliest slot all its
// senders are awake — the duty-cycle wake-wait compression move.
func (imp *Improver) tryShift(in core.Instance, s *state, bud *budgetState, st *Stats, opt Options) (bool, error) {
	gi := len(imp.groups) - 1
	if gi < 0 {
		return false, nil
	}
	a := imp.groups[gi]
	t := s.cur[a].T
	low := in.Start
	if gi > 0 {
		low = s.cur[a-1].T + 1
	}
	if hi := low + shiftScanCap; t-1 > hi {
		t = hi + 1 // bound the scan; anything periodic repeats well within
	}
	for t2 := low; t2 < t; t2++ {
		awake := true
		for _, adv := range s.cur[a:] {
			for _, u := range adv.Senders {
				if !in.Wake.Awake(u, t2) {
					awake = false
					break
				}
			}
			if !awake {
				break
			}
		}
		if !awake {
			continue
		}
		if !bud.spend() {
			return false, nil
		}
		st.Moves++
		st.Shift.Attempted++
		cand := imp.candAdv[:0]
		cand = append(cand, s.cur...)
		for i := a; i < len(cand); i++ {
			cand[i].T = t2
		}
		imp.candAdv = cand
		return imp.tryCandidate(in, s, cand, st, &st.Shift, opt)
	}
	return false, nil
}

// tryCandidate evaluates one candidate advance list by allocation-free
// replay and, when it beats the current objective, materializes it,
// re-verifies it with Schedule.Validate and adopts it.
func (imp *Improver) tryCandidate(in core.Instance, s *state, cand []core.Advance, st *Stats, ms *MoveStats, opt Options) (bool, error) {
	advC, sendC, end, ok := imp.replay(in, cand, nil)
	if !ok || !better(end, advC, sendC, s.end, len(s.cur), s.senders) {
		return false, nil
	}
	norm := make([]core.Advance, 0, advC)
	if _, _, _, ok := imp.replay(in, cand, &norm); !ok {
		return false, fmt.Errorf("improve: candidate replay diverged (internal error)")
	}
	if err := (&core.Schedule{Source: in.Source, Start: in.Start, Advances: norm}).Validate(in); err != nil {
		return false, fmt.Errorf("improve: accepted move failed validation: %w", err)
	}
	imp.adopt(in, s, norm, end, st, ms, opt)
	return true, nil
}

// adopt installs a validated, freshly materialized advance list as the
// current best, crediting the acceptance to the neighborhood in ms, and
// notifies OnImprove.
func (imp *Improver) adopt(in core.Instance, s *state, advs []core.Advance, end int, st *Stats, ms *MoveStats, opt Options) {
	st.SlotsSaved += s.end - end
	ms.SlotsSaved += s.end - end
	s.cur = advs
	s.end = end
	s.senders = countSenders(advs)
	imp.regroup(advs)
	st.Accepted++
	ms.Accepted++
	if opt.OnImprove != nil {
		opt.OnImprove(&core.Schedule{Source: in.Source, Start: in.Start, Advances: advs}, *st)
	}
}

// replay runs cand through the slot walker while thinning it: a listed
// sender that has not received the message or is asleep rejects the
// candidate, senders with nothing left to cover are then dropped (they no
// longer transmit), an advance whose reach is empty dissolves (freeing
// its channel), and surviving advances are renumbered onto channels 0,
// 1, … in order. Any advance the walker rejects rejects the candidate.
// When out is non-nil the normalized advances are materialized into it
// with freshly allocated sender/coverage slices; otherwise replay only
// counts, allocation-free. Input Channel and Covered fields are ignored —
// both are re-derived.
func (imp *Improver) replay(in core.Instance, cand []core.Advance, out *[]core.Advance) (advCount, senderCount, end int, ok bool) {
	wk := &imp.walk
	wk.Reset(in)
	end = in.Start - 1
	for i := 0; i < len(cand); {
		t := cand[i].T
		if wk.Begin(t) != nil {
			return 0, 0, 0, false
		}
		for ch := 0; i < len(cand) && cand[i].T == t; i++ {
			keep := imp.keep[:0]
			for _, u := range cand[i].Senders {
				if wk.Useful(u) {
					keep = append(keep, u) // Fire checks it holds the message and is awake
				} else if !wk.Covered().Has(u) || !in.Wake.Awake(u, t) {
					imp.keep = keep
					return 0, 0, 0, false
				}
			}
			imp.keep = keep
			reach, err := wk.Fire(keep)
			if err != nil {
				return 0, 0, 0, false
			}
			if reach.Empty() {
				continue // dissolved: nothing left to reach
			}
			if out != nil {
				*out = append(*out, core.Advance{
					T:       t,
					Channel: ch,
					Senders: append([]graph.NodeID(nil), keep...),
					Covered: reach.Members(),
				})
			}
			ch++
			advCount++
			senderCount += len(keep)
			end = t
		}
		wk.End()
	}
	return advCount, senderCount, end, wk.Covered().Len() == in.G.N()
}
