package core

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"mlbs/internal/bitset"
	"mlbs/internal/color"
	"mlbs/internal/emodel"
	"mlbs/internal/graph"
	"mlbs/internal/interference"
)

// inf is larger than any reachable end time but safely below overflow.
const inf = 1 << 30

// MoveGen selects which color sets the search branches over.
type MoveGen int

const (
	// GreedyMoves branches over the λ greedy classes of Algorithm 1 —
	// the G-OPT target of Eq. 7 (sync) and Eq. 8 (duty cycle).
	GreedyMoves MoveGen = iota
	// MaximalMoves branches over every maximal conflict-free relay set —
	// the OPT target of Eq. 5 (sync) and Eq. 6 (duty cycle). Monotonicity
	// of coverage makes maximal sets sufficient for optimality.
	MaximalMoves
)

// SearchConfig tunes the branch-and-bound evaluation of the time counter M.
type SearchConfig struct {
	Moves MoveGen
	// Budget caps the number of expanded states; once exhausted the search
	// returns its incumbent with Exact=false. 0 selects DefaultBudget.
	Budget int
	// MaxSets caps maximal-set enumeration per state (MaximalMoves only);
	// hitting the cap clears Exact. 0 selects DefaultMaxSets.
	MaxSets int
	// MaxBundles caps per-state bundle enumeration on multi-channel
	// instances (Instance.Channels > 1); hitting the cap clears Exact.
	// 0 selects color.DefaultMaxBundles.
	MaxBundles int
	// Incumbent seeds the upper bound; nil uses the E-model policy, which
	// is both the paper's practical scheme and a strong initial incumbent
	// (G-OPT under MaximalMoves; the max-coverage policy on graphs whose
	// positions coincide, where the E-model is undefined).
	Incumbent Scheduler
	// DepthProfile collects per-depth expansion/memo/prune counters into
	// SearchStats.Depths. Off by default: profiled runs pay one branch and
	// a small slice append per DFS event, and untraced requests must stay
	// bit-identical to historic encodings.
	DepthProfile bool
}

// DefaultBudget bounds search effort when SearchConfig.Budget is zero.
const DefaultBudget = 200_000

// DefaultMaxSets bounds per-state maximal-set enumeration when
// SearchConfig.MaxSets is zero.
const DefaultMaxSets = 128

// Search evaluates the time counter M by memoized branch-and-bound and
// returns a provably minimal schedule when it completes within budget.
type Search struct {
	name string
	cfg  SearchConfig
}

// NewGOPT returns the G-OPT scheduler (Eq. 7/8). budget ≤ 0 uses the
// default.
func NewGOPT(budget int) *Search {
	return &Search{name: "G-OPT", cfg: SearchConfig{Moves: GreedyMoves, Budget: budget}}
}

// NewOPT returns the OPT scheduler (Eq. 5/6). budget/maxSets ≤ 0 use
// defaults.
func NewOPT(budget, maxSets int) *Search {
	return &Search{name: "OPT", cfg: SearchConfig{Moves: MaximalMoves, Budget: budget, MaxSets: maxSets}}
}

// NewSearch builds a custom search scheduler.
func NewSearch(name string, cfg SearchConfig) *Search { return &Search{name: name, cfg: cfg} }

// Name implements Scheduler.
func (s *Search) Name() string { return s.name }

// pendingAdvance is one step of the line the dfs is currently walking.
// senders, bundle and covered alias the owning frame's scratch buffers —
// valid for exactly as long as the entry is on the stack — and are only
// materialized into Advances when the line is committed as the new
// incumbent. bundle is nil in the single-channel system; on a
// multi-channel instance it holds the slot's full per-channel class list
// and covered holds their joint coverage.
type pendingAdvance struct {
	t       int
	senders color.Class
	bundle  color.Bundle
	covered bitset.Set
}

// frame is the per-depth scratch arena of the search: color buffers (which
// also hold each class move's advance), the generated moves, the joint
// coverage of the bundle move currently being explored (active), and the
// child-coverage buffer (w2). Frames are reused across every visit to
// their depth, so a warm search expands states without allocating.
type frame struct {
	scratch color.Scratch
	moves   []move
	active  bitset.Set
	w2      bitset.Set
}

type engine struct {
	in      Instance
	cfg     SearchConfig
	n       int
	k       int // effective channel count, in.K()
	period  int
	memo    memoTable
	stats   SearchStats
	depths  []DepthStats // per-depth profile, cfg.DepthProfile only
	budget  int
	trunc   bool
	bestEnd int
	best    []Advance // materialized incumbent achieving bestEnd
	stack   []pendingAdvance
	pool    *bitset.Pool
	frames  []*frame
	// Level bitsets of maxHop: the nodes not yet reached, the current BFS
	// frontier and the level being built. Sized to n with the frame arena.
	hopLeft, hopFront, hopNext bitset.Set
	// Channelized-commit scratch: the initial coverage and the two working
	// sets commitBest uses to re-derive per-channel coverage attribution.
	w0        bitset.Set
	commitW   bitset.Set
	commitTmp bitset.Set
	// Interference oracle of the bound instance; ib owns both backends so
	// rebinding on reset never allocates.
	ib     interference.Binder
	oracle interference.Oracle
}

// memoSeed keys the digest; any constant works, it only decorrelates the
// hash from the raw set contents.
const memoSeed = 0x6d6c62732d6d656d

// memoSeedFor folds the channel count into the memo seed so channelized
// states can never alias single-channel ones: the memoized value of a
// coverage state depends on how many classes a slot may carry. K = 1
// returns memoSeed exactly, keeping single-channel hashing bit-identical.
func memoSeedFor(k int) uint64 {
	if k <= 1 {
		return memoSeed
	}
	return memoSeed ^ (0x9e3779b97f4a7c15 * uint64(k))
}

func newEngine(in Instance, cfg SearchConfig) *engine {
	e := &engine{
		in:     in,
		cfg:    cfg,
		n:      in.G.N(),
		k:      in.K(),
		period: in.Wake.Period(),
		memo:   newMemoTable(memoSeedFor(in.K())),
		budget: cfg.Budget,
		pool:   bitset.NewPool(),
	}
	e.sizeHop()
	e.oracle = in.Oracle(&e.ib)
	return e
}

// sizeHop sizes maxHop's level bitsets to the bound node count.
func (e *engine) sizeHop() {
	e.hopLeft = resized(e.hopLeft, e.n)
	e.hopFront = resized(e.hopFront, e.n)
	e.hopNext = resized(e.hopNext, e.n)
}

// resized returns an empty set over n nodes, cut from s's storage when it
// has room: an engine serving mixed node counts keeps its arenas.
func resized(s bitset.Set, n int) bitset.Set {
	words := bitset.WordsFor(n)
	if cap(s) < words {
		return bitset.New(n)
	}
	s = s[:words]
	s.Clear()
	return s
}

// reset rebinds a used engine to a new instance while keeping every arena:
// the bitset pool (binned by word count), the memo storage, and the frame
// arena with its color scratches and the hop-bound level sets, whose
// n-sized bitsets are re-cut when the node count changes. The incumbent
// slice is detached, not truncated — the previous Result still aliases it.
func (e *engine) reset(in Instance, cfg SearchConfig) {
	if n := in.G.N(); n != e.n {
		e.n = n
		e.sizeHop()
		for _, f := range e.frames {
			f.active, f.w2 = resized(f.active, n), resized(f.w2, n)
		}
	}
	e.in = in
	e.cfg = cfg
	e.k = in.K()
	e.period = in.Wake.Period()
	e.memo.reset()
	e.memo.seed = memoSeedFor(e.k)
	e.stats = SearchStats{}
	e.depths = nil // never reuse: the previous Result aliases the slice
	e.budget = cfg.Budget
	e.trunc = false
	e.bestEnd = 0
	e.best = nil
	e.stack = e.stack[:0]
	e.oracle = in.Oracle(&e.ib)
}

// frame returns the depth-th scratch frame, creating it on first descent.
func (e *engine) frame(depth int) *frame {
	for len(e.frames) <= depth {
		f := &frame{active: bitset.New(e.n), w2: bitset.New(e.n)}
		f.scratch.Pool = e.pool
		e.frames = append(e.frames, f)
	}
	return e.frames[depth]
}

// depthStats returns the profile row for depth, growing the profile on
// first descent. Callers must have checked cfg.DepthProfile — the common
// (unprofiled) search never reaches this.
func (e *engine) depthStats(depth int) *DepthStats {
	for len(e.depths) <= depth {
		e.depths = append(e.depths, DepthStats{})
	}
	return &e.depths[depth]
}

// Schedule implements Scheduler.
func (s *Search) Schedule(in Instance) (*Result, error) {
	res, _, err := s.run(in, s.cfg, nil)
	return res, err
}

// run executes one search. reuse, when non-nil, is a previously-used
// engine whose arenas are recycled; the engine actually used is returned
// so callers holding one (the reusable Engine) can keep it warm.
func (s *Search) run(in Instance, cfg SearchConfig, reuse *engine) (*Result, *engine, error) {
	if err := in.Validate(); err != nil {
		return nil, reuse, err
	}
	if cfg.Budget <= 0 {
		cfg.Budget = DefaultBudget
	}
	if cfg.MaxSets <= 0 {
		cfg.MaxSets = DefaultMaxSets
	}
	if cfg.MaxBundles <= 0 {
		cfg.MaxBundles = color.DefaultMaxBundles
	}
	e := reuse
	if e == nil {
		e = newEngine(in, cfg)
	} else {
		e.reset(in, cfg)
	}
	var seed *Result
	var err error
	switch {
	case cfg.Incumbent != nil:
		seed, err = cfg.Incumbent.Schedule(in)
	case cfg.Moves == MaximalMoves:
		// OPT's strongest cheap incumbent is G-OPT itself (greedy classes
		// are maximal sets, so its value is feasible for OPT); with it the
		// search usually only has to prove a fail-high.
		seed, err = NewGOPT(cfg.Budget).Schedule(in)
	default:
		// The policies below roll out on the instance validated above,
		// borrowing frame 0's scratch and the engine's oracle: the dfs has
		// not started, and the rollout is done with both before it does.
		sc := &e.frame(0).scratch
		seed, err = NewEModel().rollout(in, sc, e.oracle)
		if errors.Is(err, emodel.ErrCoincidentPositions) {
			// Abstract graphs without geometry cannot host the E-model;
			// the utilization-greedy policy is the next-best rollout.
			seed, err = NewPolicy("max-coverage", MaxCoverageRule{}).rollout(in, sc, e.oracle)
		}
	}
	if err != nil {
		return nil, e, fmt.Errorf("core: incumbent rollout failed: %w", err)
	}
	e.bestEnd = seed.Schedule.End()
	e.best = append([]Advance(nil), seed.Schedule.Advances...)

	w0 := in.initialCoverage()
	e.w0 = w0
	var (
		sched *Schedule
		exact bool
	)
	if w0.Len() == e.n {
		// Single-node network: nothing to broadcast.
		sched = &Schedule{Source: in.Source, Start: in.Start}
		exact = true
	} else {
		val, ex := e.dfs(0, w0, in.Start, e.bestEnd)
		switch {
		case ex && val <= e.bestEnd:
			// The search established the exact optimum; rebuild its path
			// from the memo. Move caps make "exact" relative to the capped
			// move set, which is not a global optimality proof.
			adv, rerr := e.reconstruct(w0, in.Start, val)
			if rerr != nil {
				return nil, e, rerr
			}
			sched = &Schedule{Source: in.Source, Start: in.Start, Advances: adv}
			exact = !e.stats.MovesCapped
		case ex:
			return nil, e, errors.New("core: search returned exact value above the incumbent (internal error)")
		case val >= e.bestEnd:
			// Fail-high: every alternative is provably ≥ the incumbent, so
			// the incumbent is optimal. Lower bounds stay valid under
			// budget truncation (truncated subtrees return admissible
			// bounds), so only move caps spoil the proof.
			sched = &Schedule{Source: in.Source, Start: in.Start, Advances: e.best}
			exact = !e.stats.MovesCapped
		default:
			// Budget ran out before a proof: ship the best walked schedule.
			sched = &Schedule{Source: in.Source, Start: in.Start, Advances: e.best}
		}
	}
	e.stats.MemoEntries = e.memo.count
	e.stats.BudgetExhausted = e.trunc
	e.stats.Depths = e.depths // nil unless cfg.DepthProfile collected rows
	return &Result{
		Scheduler: s.name,
		Schedule:  sched,
		PA:        sched.PA(),
		Exact:     exact,
		Stats:     e.stats,
	}, e, nil
}

// maxHop returns the largest hop distance from coverage w to any uncovered
// node — the admissible lower bound on remaining advances (each advance
// extends coverage by at most one hop) — or inf when some node is
// unreachable. It is a multi-source BFS run level by level over the
// neighbor bitsets, direction-optimizing on running counts of the
// frontier and of the nodes left. While the frontier is the smaller, a
// level is built top-down: the OR of the frontier's neighbor rows, masked
// by the nodes left, a few-word OR per frontier node. Otherwise it is
// built bottom-up: each node left whose neighbor row meets the frontier
// joins, a few-word AND with an early exit per node left. Both build the
// same set — the nodes left that neighbor the frontier — so level l holds
// exactly the nodes at hop distance l whichever way it was built, and the
// level count is the queue BFS's maximum distance.
//
//mlbs:hotpath -- evaluated at the top of every dfs call, memo hits and pruned children included
func (e *engine) maxHop(w bitset.Set) int {
	left, front, next := e.hopLeft, e.hopFront, e.hopNext
	for i, x := range w {
		left[i] = ^x
	}
	if r := e.n % 64; r != 0 {
		left[len(left)-1] &= 1<<uint(r) - 1
	}
	nLeft := left.Len()
	if nLeft == 0 {
		return 0
	}
	front.CopyFrom(w)
	nFront := e.n - nLeft
	g := e.in.G
	for level := 1; ; level++ {
		topDown := nFront < nLeft
		if topDown {
			next.Clear()
			for i, x := range front {
				for ; x != 0; x &= x - 1 {
					next.UnionWith(g.Nbr(i*64 + bits.TrailingZeros64(x)))
				}
			}
		}
		grew := 0
		for i, x := range left {
			var add uint64
			if topDown {
				add = next[i] & x
			} else {
				for m := x; m != 0; m &= m - 1 {
					b := bits.TrailingZeros64(m)
					if g.Nbr(i*64 + b).Intersects(front) {
						add |= 1 << uint(b)
					}
				}
			}
			next[i] = add
			left[i] = x &^ add
			grew += bits.OnesCount64(add)
		}
		if grew == 0 {
			return inf // the rest is unreachable; cannot complete
		}
		if nLeft -= grew; nLeft == 0 {
			return level
		}
		nFront = grew
		front, next = next, front
	}
}

// moves generates the color sets available at slot among the awake
// candidates into fr, largest coverage first (ties: ascending lexicographic
// senders). A single-class move carries its advance as the move generator
// left it in fr.scratch. On a multi-channel instance every move is a
// bundle of up to K sender-disjoint classes — one per channel — instead of
// a single class, and its advance is built when the move is walked. The
// returned slice and everything it references belong to fr and are
// clobbered by the frame's next use.
//
//mlbs:hotpath -- move generation runs once per expanded node; warm frames reuse every buffer
func (e *engine) moves(fr *frame, w bitset.Set, cands []graph.NodeID, slot int) []move {
	var classes []color.Class
	switch e.cfg.Moves {
	case GreedyMoves:
		classes = fr.scratch.GreedyPartitionOracle(e.in.G, w, cands, e.oracle)
	case MaximalMoves:
		var capped bool
		classes, capped = fr.scratch.MaximalSetsOracle(e.in.G, w, cands, e.cfg.MaxSets, e.oracle)
		if capped {
			e.stats.MovesCapped = true
		}
	default:
		panic("core: unknown move generator")
	}
	fr.moves = fr.moves[:0]
	if e.k > 1 && len(classes) > 1 {
		bundles, capped := fr.scratch.Bundles(classes, e.k, e.cfg.MaxBundles)
		if capped {
			e.stats.MovesCapped = true
		}
		for _, b := range bundles {
			fr.moves = append(fr.moves, move{
				senders: b[0],
				bundle:  b,
				covLen:  fr.scratch.BundleCoveredLen(e.in.G, w, b),
			})
		}
		slices.SortStableFunc(fr.moves, compareMoves)
		return fr.moves
	}
	for i, c := range classes {
		cov := fr.scratch.ClassCovered(i)
		fr.moves = append(fr.moves, move{senders: c, covered: cov, covLen: cov.Len()})
	}
	slices.SortStableFunc(fr.moves, compareMoves)
	return fr.moves
}

// commitBest materializes the walked line on the stack into e.best. Only
// here do pending advances turn into real Advance values (copied senders,
// member-list coverage): improvements are rare, so the whole search defers
// that work until a line actually wins. On a multi-channel instance each
// pending slot expands into one Advance per channel, with coverage
// attributed to the lowest channel reaching each node — the canonical
// form Schedule.Validate checks.
func (e *engine) commitBest() {
	e.best = e.best[:0]
	if e.k <= 1 {
		for _, p := range e.stack {
			e.best = append(e.best, Advance{
				T:       p.t,
				Senders: append([]graph.NodeID(nil), p.senders...),
				Covered: p.covered.Members(),
			})
		}
		return
	}
	if e.commitW.Capacity() < e.n {
		e.commitW = bitset.New(e.n)
		e.commitTmp = bitset.New(e.n)
	}
	w := e.commitW[:e.w0.Words()]
	tmp := e.commitTmp[:e.w0.Words()]
	w.CopyFrom(e.w0)
	for _, p := range e.stack {
		b := p.bundle
		if b == nil {
			b = color.Bundle{p.senders}
		}
		e.best = appendBundleAdvances(e.best, e.in.G, w, tmp, p.t, b)
	}
}

// appendBundleAdvances materializes one channelized slot: the bundle's
// classes fire at slot t on channels 0, 1, …, each node's coverage
// attributed to the lowest channel that reaches it; classes whose whole
// reach was claimed by a lower channel are dropped (and their channel
// reused). w — the coverage before the slot — accumulates the slot's
// coverage; tmp is scratch.
func appendBundleAdvances(out []Advance, g *graph.Graph, w, tmp bitset.Set, t int, b color.Bundle) []Advance {
	ch := 0
	for _, cls := range b {
		tmp.Clear()
		for _, u := range cls {
			tmp.UnionWith(g.Nbr(u))
		}
		tmp.DifferenceWith(w)
		if tmp.Empty() {
			continue
		}
		out = append(out, Advance{
			T:       t,
			Channel: ch,
			Senders: append([]graph.NodeID(nil), cls...),
			Covered: tmp.Members(),
		})
		w.UnionWith(tmp)
		ch++
	}
	return out
}

// dfs evaluates M(w, t): the minimal end time (slot of the last advance)
// achievable from coverage w at time t. The second return value reports
// the kind of the first: true — the value is exact; false — it is only a
// lower bound (the branch was cut off at `limit`, or the budget ran out).
// limit is a pure search-control: the caller does not care about values
// ≥ limit, so subtrees provably at or above it are cut. depth indexes the
// engine's frame arena; w is owned by the caller and read-only here.
//
// In the round-based system (wake period 1) every node is awake in every
// slot, and dfs never sees full coverage (the root and the full-coverage
// return below both guard it), so a finite hop bound means some covered
// node has an uncovered neighbour and the next useful slot is t itself.
// There the candidate scan waits until the bound, the memo and the budget
// have all let the state through: most calls are cut before it. Under a
// duty cycle the slot is the candidates' earliest wake, so the scan comes
// first.
//
//mlbs:hotpath -- the branch-and-bound inner loop; the warm-path alloc pin depends on it staying allocation-free
func (e *engine) dfs(depth int, w bitset.Set, t, limit int) (int, bool) {
	fr := e.frame(depth)
	slot, cands := t, []graph.NodeID(nil)
	if e.period > 1 {
		var ok bool
		if slot, cands, ok = nextUsefulSlot(e.in.G, e.in.Wake, w, t, &fr.scratch); !ok {
			return inf, true // no candidate can ever fire again
		}
	}
	hop := e.maxHop(w)
	if hop == 0 || hop >= inf {
		return inf, true // full coverage or an unreachable node: a dead state
	}
	lb := slot + hop - 1
	if lb >= limit {
		if e.cfg.DepthProfile {
			e.depthStats(depth).BoundPrunes++
		}
		return lb, false
	}
	tmod := slot % e.period
	if r, kind := e.memo.lookup(w, tmod); kind != memoEmpty {
		if kind == memoExact {
			e.stats.MemoHits++
			if e.cfg.DepthProfile {
				e.depthStats(depth).MemoHits++
			}
			return slot + int(r), true
		}
		if v := slot + int(r); v >= limit {
			e.stats.MemoHits++
			if e.cfg.DepthProfile {
				e.depthStats(depth).MemoHits++
			}
			return v, false
		}
	}
	if e.budget <= 0 {
		e.trunc = true
		if e.cfg.DepthProfile {
			e.depthStats(depth).BudgetCuts++
		}
		return lb, false
	}
	e.budget--
	e.stats.Expanded++
	if e.cfg.DepthProfile {
		e.depthStats(depth).Expanded++
	}
	if e.period == 1 {
		// All awake: the candidates are the awake candidates at slot t.
		if cands = fr.scratch.Candidates(e.in.G, w); len(cands) == 0 {
			return inf, true // unreachable: hop ≥ 1 leaves a candidate
		}
	}

	bestExact, minLB := inf, inf
	for i := range e.moves(fr, w, cands, slot) {
		m := &fr.moves[i]
		if m.covLen == 0 {
			continue // defensive: candidates always cover someone
		}
		cov := m.covered
		if m.bundle != nil {
			cov = m.bundle.CoveredInto(e.in.G, w, fr.active)
		}
		bitset.UnionInto(fr.w2, w, cov)
		e.stack = append(e.stack, pendingAdvance{t: slot, senders: m.senders, bundle: m.bundle, covered: cov})
		if m.covLen+w.Len() == e.n {
			// Ending at the current slot is unbeatable from this state
			// (full coverage in one advance forces hop == 1, so lb == slot);
			// exact regardless of the other moves.
			if slot < e.bestEnd {
				e.bestEnd = slot
				e.commitBest()
			}
			e.stack = e.stack[:len(e.stack)-1]
			e.memo.put(w, tmod, 0, memoExact)
			return slot, true
		}
		childLimit := limit
		if bestExact < childLimit {
			childLimit = bestExact
		}
		v, exact := e.dfs(depth+1, fr.w2, slot+1, childLimit)
		e.stack = e.stack[:len(e.stack)-1]
		if exact {
			if v < bestExact {
				bestExact = v
			}
		} else if v < minLB {
			minLB = v
		}
		if bestExact == lb {
			break // matches the lower bound; provably optimal here
		}
	}

	// Exact when every alternative is proven no better (bestExact ≤ minLB)
	// or the value meets the admissible floor (bestExact == lb).
	if bestExact <= minLB || bestExact == lb {
		e.memo.put(w, tmod, int32(bestExact-slot), memoExact)
		return bestExact, true
	}
	res := minLB
	if lb > res {
		res = lb
	}
	if r, kind := e.memo.lookup(w, tmod); kind == memoEmpty || (kind == memoLower && int(r) < res-slot) {
		e.memo.put(w, tmod, int32(res-slot), memoLower)
	}
	return res, false
}

// reconstruct rebuilds the optimal advance sequence from the memo after an
// exact improving search: at every state it re-derives the moves in the
// same deterministic order and follows the child whose exact value matches
// the expected end time.
func (e *engine) reconstruct(w0 bitset.Set, t, want int) ([]Advance, error) {
	var out []Advance
	w := w0.Clone()
	w2 := bitset.New(e.n)
	tmp := bitset.New(e.n)
	fr, probe := e.frame(0), e.frame(1)
	for w.Len() < e.n {
		slot, cands, ok := nextUsefulSlot(e.in.G, e.in.Wake, w, t, &fr.scratch)
		if !ok {
			return nil, errors.New("core: reconstruction reached a dead state")
		}
		found := false
		for i := range e.moves(fr, w, cands, slot) {
			m := &fr.moves[i]
			if m.covLen == 0 {
				continue
			}
			cov := m.covered
			if m.bundle != nil {
				cov = m.bundle.CoveredInto(e.in.G, w, fr.active)
			}
			bitset.UnionInto(w2, w, cov)
			if w2.Len() == e.n {
				if slot != want {
					continue
				}
			} else {
				// The child's memo slot, found as dfs finds it: the next
				// slot in the round-based system, else the earliest wake.
				slot2 := slot + 1
				if e.period > 1 {
					var ok2 bool
					if slot2, _, ok2 = nextUsefulSlot(e.in.G, e.in.Wake, w2, slot+1, &probe.scratch); !ok2 {
						continue
					}
				}
				r, kind := e.memo.lookup(w2, slot2%e.period)
				if kind != memoExact || slot2+int(r) != want {
					continue
				}
			}
			if e.k > 1 {
				b := m.bundle
				if b == nil {
					b = color.Bundle{m.senders}
				}
				out = appendBundleAdvances(out, e.in.G, w, tmp, slot, b)
			} else {
				out = append(out, Advance{
					T:       slot,
					Senders: append([]graph.NodeID(nil), m.senders...),
					Covered: cov.Members(),
				})
				w.UnionWith(cov)
			}
			t = slot + 1
			found = true
			break
		}
		if !found {
			return nil, errors.New("core: reconstruction lost the optimal path (memo incomplete)")
		}
	}
	return out, nil
}
