// Package emodel builds the paper's lightweight delay estimation: the
// 4-tuple E_1..E_4(u) giving, for each quadrant, the remaining work from u
// to the edge of the network (Section IV-E, Algorithm 2). In the
// synchronous system the estimate is the quadrant-constrained hop distance
// to an edge node (Eq. 9); in the duty-cycle system hops are weighted by
// the cycle waiting time t(u,v) (Eq. 11), estimated proactively by the mean
// CWT a node can compute from its neighbor's seed.
//
// A table first classifies every edge once into per-node quadrant rows,
// the bitsets N(u) ∩ Q_q(u), kept in one slab the table owns. Everything
// after that reads the rows and never calls QuadrantOf again: a node seeds
// quadrant q when its row is empty; Eq. 9's table is a top-down level BFS
// over the opposite-quadrant rows (BuildHop); Eq. 11's is a Dijkstra over
// the same rows (Build); and Eq. 10's score tests each row against the
// coverage (Score).
//
// Algorithm 2 seeds network-edge nodes with empty quadrants in its first
// pass and the interior local minima in its second. Here one pass is
// Algorithm 2: quadrants are half-open 90° sectors, so a node with an
// empty quadrant has an angular gap of at least π/2 among its neighbors
// and is itself a network-edge node by the criterion EdgeNodes applies.
// The first pass therefore already seeds every node the second could, and
// the builds seed every empty-quadrant node at once without detecting
// edges. EdgeNodes remains for callers that report or check the edge
// structure; internal/protocol runs the paper's literal two passes against
// BuildHop and Build.
//
// Edge detection stands in for the paper's references [3] (convex hull) and
// [6] (boundary construction): a node is an edge node when it lies on the
// convex hull of the deployment or exhibits an angular gap of at least π/2
// among its neighbors — a quarter-plane of its coverage disk is empty, the
// hole/boundary criterion surveyed in the paper's reference [1].
package emodel

import (
	"errors"
	"math"
	"math/bits"

	"mlbs/internal/bitset"
	"mlbs/internal/dutycycle"
	"mlbs/internal/geom"
	"mlbs/internal/graph"
)

// Inf marks an unreachable estimate (no path toward an edge through the
// quadrant). Every quadrant chain of a finished table ends at an
// empty-quadrant node, so only entries not yet reached hold it.
var Inf = math.Inf(1)

// ErrCoincidentPositions reports a graph with two nodes at the same
// position, where quadrants — and so the estimates — are undefined.
var ErrCoincidentPositions = errors.New("emodel: quadrant estimates need distinct node positions")

// Table holds E_i(u) for every node and quadrant: E[u][q.Index()].
type Table struct {
	E [][4]float64
	// Stats for Theorem 3's O(1) update claim: how many times each node's
	// tuple entries were settled during construction.
	Updates []int
	// rows holds the quadrant neighbor rows N(u) ∩ Q_q(u) in one
	// node-major slab of words-word bitsets: row (u, q) starts at word
	// (4u + q.Index())·words. Build and BuildHop fill it; Score reads it.
	rows  []uint64
	words int
}

// Value returns E_q(u).
func (t *Table) Value(u graph.NodeID, q geom.Quadrant) float64 { return t.E[u][q.Index()] }

// MaxFinite returns the largest finite entry of the table (0 when empty).
func (t *Table) MaxFinite() float64 {
	max := 0.0
	for _, row := range t.E {
		for _, v := range row {
			if !math.IsInf(v, 1) && v > max {
				max = v
			}
		}
	}
	return max
}

// EdgeNodes reports which nodes lie on the network edge: convex-hull
// membership or a ≥ π/2 angular gap among neighbor directions.
func EdgeNodes(g *graph.Graph) []bool {
	n := g.N()
	edge := make([]bool, n)
	for _, h := range geom.ConvexHull(g.Positions()) {
		edge[h] = true
	}
	maxDeg := g.MaxDegree()
	nbrs := make([]geom.Point, 0, maxDeg)
	angles := make([]float64, maxDeg)
	for u := 0; u < n; u++ {
		if edge[u] {
			continue
		}
		nbrs = nbrs[:0]
		for _, v := range g.Adj(u) {
			nbrs = append(nbrs, g.Pos(v))
		}
		if geom.MaxAngularGapBuf(g.Pos(u), nbrs, angles) >= math.Pi/2-1e-12 {
			edge[u] = true
		}
	}
	return edge
}

// Weight gives the cost of relaying from u to neighbor v. The synchronous
// system uses 1 (a hop per round, Eq. 9); the duty-cycle system uses the
// proactive mean CWT (Eq. 11). Every weight must be at least 1 — HopWeight
// is 1 and every CWT is at least one slot — which lets Build skip the
// evaluation of any edge whose relaxation cannot lower an entry.
// BuildHop takes no Weight; Build(g, HopWeight) gives the same table by
// Dijkstra.
type Weight func(u, v graph.NodeID) float64

// HopWeight is the synchronous weight: every hop costs one round.
func HopWeight(u, v graph.NodeID) float64 { return 1 }

// CWTWeight returns the asynchronous weight for schedule s: the mean cycle
// waiting time u observes before v can forward (Eq. 11's t(u,v)). For the
// paper's Uniform schedule it bit-slices every node's wake offsets up
// front, so the returned Weight is a pure function over an immutable table
// and is safe to share; other schedules (and tables too large to build)
// scan the schedule generically per evaluation.
func CWTWeight(s dutycycle.Schedule) Weight {
	if un, ok := s.(*dutycycle.Uniform); ok {
		if tab := un.OffsetTable(); tab != nil {
			return tab.MeanCWT
		}
	}
	return func(u, v graph.NodeID) float64 { return dutycycle.MeanCWT(s, u, v) }
}

// New builds the E table for an instance's graph and wake schedule: hop
// weights (Eq. 9, BuildHop) when wake is nil or wakes every slot,
// mean-CWT weights (Eq. 11, Build) otherwise. It is the one place that
// choice is made, and it rejects coincident positions, which QuadrantOf
// cannot classify.
func New(g *graph.Graph, wake dutycycle.Schedule) (*Table, error) {
	if !g.DistinctPositions() {
		return nil, ErrCoincidentPositions
	}
	if wake != nil && wake.Rate() > 1 {
		return Build(g, CWTWeight(wake)), nil
	}
	return BuildHop(g), nil
}

// newTable allocates a table for g and fills its quadrant rows. The E
// entries are all zero and no update is counted yet.
func newTable(g *graph.Graph) *Table {
	n, words := g.N(), bitset.WordsFor(g.N())
	t := &Table{
		E:       make([][4]float64, n),
		Updates: make([]int, n),
		rows:    make([]uint64, 4*n*words),
		words:   words,
	}
	t.classify(g)
	return t
}

// classify fills the quadrant rows with one QuadrantOf call per
// undirected edge {u, v}, u < v: v ∈ Q_q(u) exactly when u ∈ Q_{q+2}(v),
// because QuadrantOf's half-open axis convention is antisymmetric (the
// coordinate differences only change sign), so the one call fills both
// rows.
//
//mlbs:hotpath -- runs once per E table, over every edge
func (t *Table) classify(g *graph.Graph) {
	pos := g.Positions()
	for u := range t.E {
		adj := g.Adj(u)
		for i := len(adj) - 1; i >= 0 && adj[i] > u; i-- {
			v := adj[i]
			qi := geom.QuadrantOf(pos[u], pos[v]).Index()
			t.row(u, qi).Add(v)
			t.row(v, opposite(qi)).Add(u)
		}
	}
}

// opposite returns the index of the quadrant facing quadrant index qi.
func opposite(qi int) int { return (qi + 2) & 3 }

// row returns N(u) ∩ Q_qi(u) as a view into the table's slab.
func (t *Table) row(u graph.NodeID, qi int) bitset.Set {
	i := (4*u + qi) * t.words
	return bitset.Set(t.rows[i : i+t.words : i+t.words])
}

// BuildHop constructs the synchronous E table (Eq. 9): every hop costs
// one round. A node whose quadrant row is empty seeds that quadrant at 0
// (see the package comment for why one pass suffices); every other entry
// is its hop distance to a seed along quadrant chains, found by levelBFS.
// The table equals Build under unit weights bit for bit, Updates included.
// Positions must be distinct.
func BuildHop(g *graph.Graph) *Table {
	t := newTable(g)
	// One allocation backs the three level sets of every quadrant.
	sets := make([]uint64, 3*t.words)
	left := bitset.Set(sets[:t.words])
	front := bitset.Set(sets[t.words : 2*t.words])
	next := bitset.Set(sets[2*t.words:])
	for qi := range geom.Quadrants {
		t.levelBFS(qi, left, front, next)
	}
	return t
}

// levelBFS fills quadrant qi of a unit-weight table top-down, one hop
// level at a time. E_qi(u) = 1 + min E_qi(v) over v ∈ N(u)∩Q_qi(u), and
// v ∈ Q_qi(u) exactly when u ∈ Q_{qi+2}(v), so the nodes at level l are
// the union of the opposite-quadrant rows of level l−1, less the nodes
// already reached. Each node is assigned once, which is the count
// Dijkstra's first assignments give; levels are whole numbers, so the
// values are the same float64s a Dijkstra over weight 1 sums to.
//
//mlbs:hotpath -- the E-model incumbent of every sync search builds one table
func (t *Table) levelBFS(qi int, left, front, next bitset.Set) {
	opp := opposite(qi)
	left.Clear()
	front.Clear()
	for u := range t.E {
		if t.row(u, qi).Empty() {
			t.Updates[u]++ // E_qi(u) stays 0: u seeds the quadrant
			front.Add(u)
		} else {
			t.E[u][qi] = Inf
			left.Add(u)
		}
	}
	for level := 1.0; ; level++ {
		next.Clear()
		for i, x := range front {
			for ; x != 0; x &= x - 1 {
				next.UnionWith(t.row(i*64+bits.TrailingZeros64(x), opp))
			}
		}
		next.IntersectWith(left)
		if next.Empty() {
			return // every reachable entry is set; the rest stay ∞
		}
		left.DifferenceWith(next)
		for i, x := range next {
			for ; x != 0; x &= x - 1 {
				u := i*64 + bits.TrailingZeros64(x)
				t.E[u][qi] = level
				t.Updates[u]++
			}
		}
		front, next = next, front
	}
}

// Build constructs the E table for graph g under an arbitrary weight per
// Algorithm 2, seeding every node with an empty quadrant at 0 (see the
// package comment for why one pass suffices). Positions must be
// distinct. Unit weights are BuildHop's job; Build serves Eq. 11's CWT.
//
// Relaxation solves E_i(u) = min over v ∈ N(u)∩Q_i(u) of w(u,v) + E_i(v)
// exactly (Dijkstra from the seeded zeros along reversed constraint edges),
// which settles every node's entry exactly once per quadrant — the O(1)
// information-exchange property of Theorem 3.
func Build(g *graph.Graph, w Weight) *Table {
	t := newTable(g)
	// One frontier serves every quadrant: the search constructs an
	// incumbent E-model rollout inside each OPT/G-OPT call, so Build must
	// not allocate per node settled.
	var frontier pq
	for qi := range geom.Quadrants {
		for u := range t.E {
			if t.row(u, qi).Empty() {
				t.Updates[u]++ // E_qi(u) stays 0: u seeds the quadrant
				frontier.push(pqItem{u, 0})
			} else {
				t.E[u][qi] = Inf
			}
		}
		t.relaxQuadrant(w, qi, &frontier)
	}
	return t
}

// pqItem is a Dijkstra frontier entry.
type pqItem struct {
	node graph.NodeID
	dist float64
}

// pq is a typed binary min-heap over (dist, node). container/heap would
// box every pushed pqItem into an interface, allocating once per edge
// relaxation; the hand-rolled sift functions keep the frontier
// allocation-free on a reused backing array.
type pq []pqItem

func (p pq) less(i, j int) bool {
	if p[i].dist != p[j].dist {
		return p[i].dist < p[j].dist
	}
	return p[i].node < p[j].node
}

func (p *pq) push(it pqItem) {
	*p = append(*p, it)
	h := *p
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (p *pq) pop() pqItem {
	h := *p
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	*p = h
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && h.less(l, smallest) {
			smallest = l
		}
		if r < last && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	return top
}

// relaxQuadrant runs Dijkstra for quadrant index qi from the zero seeds
// on the caller's frontier heap. The constraint edge u→v exists when
// v ∈ N(u)∩Q_qi(u); Dijkstra walks the reverse direction: settling v
// improves every u that sees v in its quadrant qi, which are the members
// of v's opposite-quadrant row, read word by word. An unsettled entry may
// still tighten (Dijkstra's decrease-key — the node has not announced its
// value yet, so this is not a second information exchange); Updates
// counts first assignments only.
//
// Every weight is at least 1, so when v settles each already-settled u
// has E(u) ≤ E(v) and the single test E(u) ≤ E(v)+1 skips it along with
// every other u no weight can lower; the weight is not evaluated for
// those edges. An entry is pushed only when it strictly drops, so the one
// heap item whose distance equals the final entry settles v exactly once;
// every directed edge is relaxed at most once per Build and its weight
// needs no cache.
func (t *Table) relaxQuadrant(w Weight, qi int, frontier *pq) {
	opp := opposite(qi)
	for len(*frontier) > 0 {
		it := frontier.pop()
		v := it.node
		ev := t.E[v][qi]
		if it.dist > ev {
			continue // stale: v was pushed again with a smaller distance
		}
		for i, x := range t.row(v, opp) {
			for ; x != 0; x &= x - 1 {
				u := i*64 + bits.TrailingZeros64(x)
				eu := t.E[u][qi]
				if eu <= ev+1 {
					continue // E(u) is settled, or no weight ≥ 1 can lower it
				}
				if cand := w(u, v) + ev; cand < eu {
					if math.IsInf(eu, 1) {
						t.Updates[u]++
					}
					t.E[u][qi] = cand
					frontier.push(pqItem{u, cand})
				}
			}
		}
	}
}

// Score evaluates Eq. 10 for a candidate u: the maximum E_k(u) over
// quadrants k in which u still has an uncovered neighbor — at most four
// row-against-coverage tests. Returns -1 when every neighbor of u is
// covered. Completed tables have no ∞ entries (every quadrant chain
// terminates at an empty-quadrant node), so the result is finite in
// practice. The table must come from New, Build or BuildHop, which fill
// the quadrant rows.
//
//mlbs:hotpath -- evaluated per class member at every E-model rollout step
func (t *Table) Score(u graph.NodeID, covered bitset.Set) float64 {
	best := -1.0
	for qi, e := range t.E[u] {
		if e > best && t.row(u, qi).AnyDifference(covered) {
			best = e
		}
	}
	return best
}
