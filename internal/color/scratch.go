package color

import (
	"slices"
	"sort"

	"mlbs/internal/bitset"
	"mlbs/internal/dutycycle"
	"mlbs/internal/graph"
	"mlbs/internal/interference"
)

// Scratch holds every buffer the color computations of one search frame
// need: class headers and their member backing, the candidate sort order,
// and a size-classed bitset pool for the Bron–Kerbosch working sets. After
// warm-up, GreedyPartition and MaximalSets run allocation-free on a reused
// Scratch — the property the scheduler's hot loop depends on.
//
// Results returned by Scratch methods alias its buffers and stay valid
// only until the next call on the same Scratch. A Scratch is not safe for
// concurrent use; the zero value is ready to go.
type Scratch struct {
	// Pool recycles the maximal-set enumeration's working bitsets. Lazily
	// created on first use; engines may share one pool across the
	// scratches of all their frames.
	Pool *bitset.Pool

	classes []Class
	members []graph.NodeID // backing storage the returned classes slice into
	order   []graph.NodeID // greedy order; compacted to the unlabeled rest each round
	recv    []int
	count   []int // receiver-count buckets of the counting sort
	sorter  recvSorter

	// Per-class advances of the latest partition or maximal-set call:
	// cover[i] = N(classes[i]) \ W, sliced from coverSlab.
	cover     []bitset.Set
	coverSlab []uint64

	cands []graph.NodeID
	awake []graph.NodeID

	covTmp bitset.Set

	// Bundle enumeration state (multi-channel slots; see bundle.go).
	bundles       []Bundle
	bundleClasses []Class // backing storage the returned bundles slice into
	bundleIdx     []int

	// gor backs the oracle-free convenience forms of GreedyPartition and
	// MaximalSets: they bind the protocol-graph oracle here so callers
	// without an interference.Binder stay allocation-free.
	gor interference.GraphOracle

	mk mkState
}

// BundleCoveredLen returns the joint advance size |A| of a bundle —
// Bundle.CoveredInto(...).Len() without materializing a fresh set.
func (sc *Scratch) BundleCoveredLen(g *graph.Graph, w bitset.Set, b Bundle) int {
	if sc.covTmp.Capacity() < w.Capacity() {
		sc.covTmp = bitset.New(w.Capacity())
	}
	tmp := sc.covTmp[:w.Words()]
	return b.CoveredInto(g, w, tmp).Len()
}

func (sc *Scratch) pool() *bitset.Pool {
	if sc.Pool == nil {
		sc.Pool = bitset.NewPool()
	}
	return sc.Pool
}

// Candidates is the buffer-reuse form of the package-level Candidates: the
// result aliases the Scratch and is valid until its next use.
func (sc *Scratch) Candidates(g *graph.Graph, w bitset.Set) []graph.NodeID {
	sc.cands = AppendCandidates(sc.cands[:0], g, w)
	return sc.cands
}

// FilterAwake narrows cands to the nodes whose sending channel is on at
// slot t, writing into the Scratch's awake buffer. cands may be the
// Scratch's own candidate buffer.
func (sc *Scratch) FilterAwake(cands []graph.NodeID, s dutycycle.Schedule, t int) []graph.NodeID {
	sc.awake = sc.awake[:0]
	for _, u := range cands {
		if s.Awake(u, t) {
			sc.awake = append(sc.awake, u)
		}
	}
	return sc.awake
}

// ClassCovered returns the advance A = N(c) \ W of class i of the latest
// GreedyPartitionOracle or MaximalSetsOracle call on this Scratch — what
// classes[i].CoveredInto would compute. It aliases the Scratch and is
// valid until the next of those calls.
//
//mlbs:hotpath -- read for every class move and every rollout rule's class
func (sc *Scratch) ClassCovered(i int) bitset.Set { return sc.cover[i] }

// coverClasses fills the per-class advances from the member lists, one
// CoveredInto per class — the coverage of every partition the union fast
// path did not build.
//
//mlbs:hotpath -- per-class coverage of the member-loop partition and of every maximal-set state
func (sc *Scratch) coverClasses(g *graph.Graph, w bitset.Set, classes []Class) {
	words := w.Words()
	sc.coverSlab = slices.Grow(sc.coverSlab[:0], len(classes)*words)[:len(classes)*words]
	for i, cls := range classes {
		cls.CoveredInto(g, w, sc.coverSlab[i*words:(i+1)*words])
	}
	sc.sliceCover(words, len(classes))
}

// sliceCover points cover[i] at the i-th words-long block of coverSlab for
// the first k blocks. Headers are cut only once the slab has stopped
// growing.
//
//mlbs:hotpath -- runs once per partition; reuses the header slice
func (sc *Scratch) sliceCover(words, k int) {
	sc.cover = sc.cover[:0]
	for i := 0; i < k; i++ {
		sc.cover = append(sc.cover, sc.coverSlab[i*words:(i+1)*words:(i+1)*words])
	}
}

// recvSorter orders candidates by descending receiver count, ties by
// ascending node ID — Algorithm 1's deterministic greedy order. It exists
// as a named type so sort.Stable receives a pointer and the sort itself
// does not allocate.
type recvSorter struct {
	ids  []graph.NodeID
	recv []int
}

func (s *recvSorter) Len() int { return len(s.ids) }
func (s *recvSorter) Less(i, j int) bool {
	if s.recv[i] != s.recv[j] {
		return s.recv[i] > s.recv[j]
	}
	return s.ids[i] < s.ids[j]
}
func (s *recvSorter) Swap(i, j int) {
	s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
	s.recv[i], s.recv[j] = s.recv[j], s.recv[i]
}

// GreedyPartition is the buffer-reuse form of the package-level
// GreedyPartition: identical classes in identical order, with all
// intermediate state (sort order, receiver counts, labels, class members)
// held in the Scratch.
//
//mlbs:hotpath -- Algorithm 1's move generator; allocation-free on a warm Scratch by design
func (sc *Scratch) GreedyPartition(g *graph.Graph, w bitset.Set, cands []graph.NodeID) []Class {
	sc.gor.Reset(g)
	return sc.GreedyPartitionOracle(g, w, cands, &sc.gor)
}

// GreedyPartitionOracle runs Algorithm 1's greedy labeling with class
// admissibility judged by o instead of the inline protocol predicate, and
// leaves each class's advance in the Scratch (ClassCovered).
//
// Under the pairwise graph oracle, bound to g, u conflicts with member v
// iff N(u) ∩ N(v) \ W ≠ ∅, so u may join a class iff N(u) meets none of
// the class's receivers R = N(class) \ W: one bitset test per (candidate,
// class) instead of one per member, and the finished R is the class's
// advance. Candidates in ascending ID order — as Candidates and
// FilterAwake produce them — are ordered by a stable counting sort on
// receiver count, which on distinct ascending IDs gives exactly
// sort.Stable's (receivers descending, ID ascending) order.
//
// Any other oracle keeps the member loop: CanJoin per candidate and class.
// SINR admissibility is not pairwise (a third sender can doom or rescue a
// receiver), so no per-class union can stand in for it. Under such an
// oracle a candidate may fail to open even a singleton class (a lone
// sender below the SINR noise floor); such candidates are labeled out of
// the partition — they can never fire at this coverage, and dropping them
// is what keeps the outer loop terminating.
//
//mlbs:hotpath -- Algorithm 1's move generator; allocation-free on a warm Scratch by design
func (sc *Scratch) GreedyPartitionOracle(g *graph.Graph, w bitset.Set, cands []graph.NodeID, o interference.Oracle) []Class {
	sc.classes = sc.classes[:0]
	sc.cover = sc.cover[:0]
	if len(cands) == 0 {
		return nil
	}
	gor, _ := o.(*interference.GraphOracle)
	union := gor != nil && gor.Graph() == g
	sc.recv = sc.recv[:0]
	maxRecv, ascending := 0, true
	for i, u := range cands {
		r := Receivers(g, u, w)
		sc.recv = append(sc.recv, r)
		maxRecv = max(maxRecv, r)
		if i > 0 && u <= cands[i-1] {
			ascending = false
		}
	}
	if union && ascending {
		sc.countingOrder(cands, maxRecv)
	} else {
		sc.order = append(sc.order[:0], cands...)
		sc.sorter.ids, sc.sorter.recv = sc.order, sc.recv
		sort.Stable(&sc.sorter)
		// A node never conflicts with itself, which the union test cannot
		// see; the sort made any duplicate IDs adjacent.
		for i := 1; union && i < len(sc.order); i++ {
			union = sc.order[i] != sc.order[i-1]
		}
	}

	if cap(sc.members) < len(cands) {
		sc.members = make([]graph.NodeID, 0, len(cands))
	} else {
		sc.members = sc.members[:0]
	}
	if union {
		sc.unionClasses(g, w)
	} else {
		sc.memberClasses(w, o)
		sc.coverClasses(g, w, sc.classes)
	}
	return sc.classes
}

// countingOrder writes cands into sc.order by descending receiver count
// (sc.recv, parallel to cands), ties in input order: a stable counting
// sort over the receiver counts 0..maxRecv.
//
//mlbs:hotpath -- the greedy order of every graph-oracle partition
func (sc *Scratch) countingOrder(cands []graph.NodeID, maxRecv int) {
	sc.count = slices.Grow(sc.count[:0], maxRecv+1)[:maxRecv+1]
	clear(sc.count)
	for _, r := range sc.recv {
		sc.count[r]++
	}
	pos := 0
	for r := maxRecv; r >= 0; r-- {
		c := sc.count[r]
		sc.count[r] = pos
		pos += c
	}
	sc.order = slices.Grow(sc.order[:0], len(cands))[:len(cands)]
	for i, u := range cands {
		r := sc.recv[i]
		sc.order[sc.count[r]] = u
		sc.count[r]++
	}
}

// unionClasses labels sc.order greedily under the graph oracle, one open
// class at a time: u joins iff N(u) misses the class's receiver set R,
// and joining adds N(u) \ W to R. The candidates not labeled stay in
// sc.order, compacted in greedy order, for the next class. R grows in
// coverSlab one class at a time and ends as the class's advance.
//
//mlbs:hotpath -- Algorithm 1's labeling under the protocol model; runs once per expanded state
func (sc *Scratch) unionClasses(g *graph.Graph, w bitset.Set) {
	words := w.Words()
	sc.coverSlab = sc.coverSlab[:0]
	left := sc.order
	for len(left) > 0 {
		off := len(sc.coverSlab)
		sc.coverSlab = slices.Grow(sc.coverSlab, words)[:off+words]
		r := bitset.Set(sc.coverSlab[off:])
		r.Clear()
		start := len(sc.members)
		rest := left[:0]
		for _, u := range left {
			nu := g.Nbr(u)
			if r.Intersects(nu) {
				rest = append(rest, u)
				continue
			}
			r.UnionDifference(nu, w)
			sc.members = append(sc.members, u)
		}
		left = rest
		cls := Class(sc.members[start:len(sc.members):len(sc.members)])
		sort.Ints(cls)
		sc.classes = append(sc.classes, cls)
	}
	sc.sliceCover(words, len(sc.classes))
}

// memberClasses labels sc.order greedily with o.CanJoin against the open
// class's member list, compacting the unlabeled rest like unionClasses. A
// candidate that cannot open a class alone is dropped.
//
//mlbs:hotpath -- Algorithm 1's labeling under any non-graph oracle (SINR)
func (sc *Scratch) memberClasses(w bitset.Set, o interference.Oracle) {
	left := sc.order
	for len(left) > 0 {
		start := len(sc.members)
		rest := left[:0]
		for _, u := range left {
			if o.CanJoin(w, sc.members[start:], u) {
				sc.members = append(sc.members, u)
			} else if start != len(sc.members) {
				rest = append(rest, u)
			}
			// Otherwise u cannot fire even alone at this coverage (never
			// the case under the pairwise graph oracle): it is dropped so
			// the partition terminates.
		}
		left = rest
		cls := Class(sc.members[start:len(sc.members):len(sc.members)])
		if len(cls) > 0 {
			sort.Ints(cls)
			sc.classes = append(sc.classes, cls)
		}
	}
}

// MaximalSets is the buffer-reuse form of the package-level MaximalSets:
// identical sets in identical order (and the identical truncation point
// under a limit), with the Bron–Kerbosch working sets drawn from the
// Scratch's pool.
//
//mlbs:poolowner -- the compat masks and r park in mkState during the enumeration and are Put in bulk before return
//mlbs:hotpath -- exhaustive move generator; pooled working sets keep a warm Scratch allocation-free
func (sc *Scratch) MaximalSets(g *graph.Graph, w bitset.Set, cands []graph.NodeID, limit int) ([]Class, bool) {
	sc.gor.Reset(g)
	return sc.MaximalSetsOracle(g, w, cands, limit, &sc.gor)
}

// MaximalSetsOracle enumerates maximal admissible sender sets with
// conflicts judged by o. Under the graph oracle it is bit-identical to
// MaximalSets. Under a non-pairwise oracle (SINR) the Bron–Kerbosch
// enumeration over the pairwise relation is only a heuristic generator:
// every emitted set is re-checked set-level and the failures dropped, and
// the result is always reported truncated — admissible sets outside the
// pairwise-compat cliques (capture rescues) are not enumerated, so no
// optimality claim survives.
//
//mlbs:poolowner -- the compat masks and r park in mkState during the enumeration and are Put in bulk before return
//mlbs:hotpath -- exhaustive move generator; pooled working sets keep a warm Scratch allocation-free
func (sc *Scratch) MaximalSetsOracle(g *graph.Graph, w bitset.Set, cands []graph.NodeID, limit int, o interference.Oracle) ([]Class, bool) {
	k := len(cands)
	if k == 0 {
		sc.cover = sc.cover[:0]
		return nil, false
	}
	st := &sc.mk
	st.g, st.w, st.cands, st.limit = g, w, cands, limit
	st.pool = sc.pool()
	st.truncated = false
	st.out = st.out[:0]
	st.members = st.members[:0]

	// compat[i] = candidate indices j≠i that do NOT conflict with i; the
	// maximal independent sets of the conflict graph are the maximal cliques
	// of this compatibility graph.
	st.compat = st.compat[:0]
	for i := 0; i < k; i++ {
		st.compat = append(st.compat, st.pool.Get(k))
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if !o.Conflict(w, cands[i], cands[j]) {
				st.compat[i].Add(j)
				st.compat[j].Add(i)
			}
		}
	}

	st.r = st.pool.Get(k)
	full := st.pool.Get(k)
	for i := 0; i < k; i++ {
		full.Add(i)
	}
	empty := st.pool.Get(k)
	st.bk(full, empty)
	st.pool.Put(full)
	st.pool.Put(empty)
	st.pool.Put(st.r)
	for _, c := range st.compat {
		st.pool.Put(c)
	}
	st.r = nil
	st.compat = st.compat[:0]

	slices.SortFunc(st.out, compareClasses)
	if !o.Pairwise() {
		kept := st.out[:0]
		for _, cls := range st.out {
			if o.ConflictFree(w, cls) {
				kept = append(kept, cls)
			}
		}
		st.out = kept
		st.truncated = true
	}
	st.g, st.w, st.cands, st.pool = nil, nil, nil, nil
	sc.coverClasses(g, w, st.out)
	return st.out, st.truncated
}

// compareClasses orders classes lexicographically — the deterministic
// output order of MaximalSets.
func compareClasses(a, b Class) int {
	switch {
	case lessClasses(a, b):
		return -1
	case lessClasses(b, a):
		return 1
	}
	return 0
}

// mkState is the Bron–Kerbosch enumeration state of one MaximalSets call,
// kept in the Scratch so the recursion is method-based (no self-referential
// closure allocation) and its buffers persist across calls.
type mkState struct {
	g         *graph.Graph
	w         bitset.Set
	cands     []graph.NodeID
	compat    []bitset.Set
	limit     int
	out       []Class
	members   []graph.NodeID // backing for out's classes
	truncated bool
	r         bitset.Set
	pool      *bitset.Pool
}

// bk emits every maximal clique of the compatibility graph extending r,
// with candidate set p and exclusion set x (both consumed). p and x are
// owned by the caller; bk mutates them exactly as the classic pivoted
// enumeration prescribes.
//
//mlbs:hotpath -- the Bron–Kerbosch recursion; method-based so no closure allocates per call
func (st *mkState) bk(p, x bitset.Set) {
	if st.truncated {
		return
	}
	if p.Empty() && x.Empty() {
		start := len(st.members)
		for i := st.r.NextAfter(0); i >= 0; i = st.r.NextAfter(i + 1) {
			st.members = append(st.members, st.cands[i])
		}
		cls := Class(st.members[start:len(st.members):len(st.members)])
		sort.Ints(cls)
		st.out = append(st.out, cls)
		if st.limit > 0 && len(st.out) >= st.limit {
			st.truncated = true
		}
		return
	}
	// Pivot: the vertex of p ∪ x with the most compatible vertices in p.
	pivot, best := -1, -1
	for i := p.NextAfter(0); i >= 0; i = p.NextAfter(i + 1) {
		if c := st.compat[i].CountIntersect(p); c > best {
			best, pivot = c, i
		}
	}
	for i := x.NextAfter(0); i >= 0; i = x.NextAfter(i + 1) {
		if c := st.compat[i].CountIntersect(p); c > best {
			best, pivot = c, i
		}
	}
	ext := st.pool.GetCopy(p)
	if pivot >= 0 {
		ext.DifferenceWith(st.compat[pivot])
	}
	p2 := st.pool.Get(p.Capacity())
	x2 := st.pool.Get(x.Capacity())
	for i := ext.NextAfter(0); i >= 0; i = ext.NextAfter(i + 1) {
		if st.truncated {
			break
		}
		st.r.Add(i)
		bitset.IntersectInto(p2, p, st.compat[i])
		bitset.IntersectInto(x2, x, st.compat[i])
		st.bk(p2, x2)
		st.r.Remove(i)
		p.Remove(i)
		x.Add(i)
	}
	st.pool.Put(p2)
	st.pool.Put(x2)
	st.pool.Put(ext)
}
