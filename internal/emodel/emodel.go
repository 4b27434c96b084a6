// Package emodel builds the paper's lightweight delay estimation: the
// 4-tuple E_1..E_4(u) giving, for each quadrant, the remaining work from u
// to the edge of the network (Section IV-E, Algorithm 2). In the
// synchronous system the estimate is the quadrant-constrained hop distance
// to an edge node (Eq. 9); in the duty-cycle system hops are weighted by
// the cycle waiting time t(u,v) (Eq. 11), estimated proactively by the mean
// CWT a node can compute from its neighbor's seed.
//
// Edge detection stands in for the paper's references [3] (convex hull) and
// [6] (boundary construction): a node is an edge node when it lies on the
// convex hull of the deployment or exhibits an angular gap of at least π/2
// among its neighbors — a quarter-plane of its coverage disk is empty, the
// hole/boundary criterion surveyed in the paper's reference [1].
package emodel

import (
	"math"

	"mlbs/internal/bitset"
	"mlbs/internal/dutycycle"
	"mlbs/internal/geom"
	"mlbs/internal/graph"
)

// Inf marks an unreachable estimate (no path toward an edge through the
// quadrant); it survives in local-minimum pockets until the second pass.
var Inf = math.Inf(1)

// Table holds E_i(u) for every node and quadrant: E[u][q.Index()].
type Table struct {
	E [][4]float64
	// Stats for Theorem 3's O(1) update claim: how many times each node's
	// tuple entries were settled during construction.
	Updates []int
	// Edge flags the nodes seeded in pass 1 (network-edge nodes).
	Edge []bool
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

// Seeding selects how zero values are planted before relaxation.
type Seeding int

const (
	// TwoPass follows Algorithm 2 exactly: pass 1 seeds only network-edge
	// nodes with empty quadrants; pass 2 seeds the still-∞ nodes with empty
	// quadrants (interior local minima) and relaxes only the remaining ∞
	// values.
	TwoPass Seeding = iota
	// OnePass seeds every node with an empty quadrant immediately — the
	// ablation variant that skips the edge-first structure.
	OnePass
)

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

// Build constructs the E table for graph g per Algorithm 2.
//
// Relaxation solves E_i(u) = min over v ∈ N(u)∩Q_i(u) of w(u,v) + E_i(v)
// exactly (Dijkstra from the seeded zeros along reversed constraint edges),
// which settles every node's entry at most once per pass — the O(1)
// information-exchange property of Theorem 3.
func Build(g *graph.Graph, w Weight, seeding Seeding) *Table {
	n := g.N()
	t := &Table{
		E:       make([][4]float64, n),
		Updates: make([]int, n),
		Edge:    EdgeNodes(g),
	}
	emptyQ := make([][4]bool, n)
	for u := 0; u < n; u++ {
		for qi := range geom.Quadrants {
			emptyQ[u][qi] = !g.HasNeighborInQuadrant(u, geom.Quadrants[qi])
			t.E[u][qi] = Inf
		}
	}

	// One relaxation scratch serves every quadrant of every pass: the
	// search constructs an incumbent E-model rollout inside each OPT/G-OPT
	// call, so Build must not allocate per node settled.
	rx := &relaxScratch{
		eligible: make([]bool, n),
		settled:  make([]bool, n),
	}
	var seeds []graph.NodeID
	seedAndRelax := func(maySeed func(u int) bool) {
		for qi, q := range geom.Quadrants {
			seeds = seeds[:0]
			for u := 0; u < n; u++ {
				if math.IsInf(t.E[u][qi], 1) && emptyQ[u][qi] && maySeed(u) {
					t.E[u][qi] = 0
					t.Updates[u]++
					seeds = append(seeds, u)
				}
			}
			relaxQuadrant(g, w, q, t, seeds, rx)
		}
	}

	if seeding == OnePass {
		seedAndRelax(func(u int) bool { return true })
		return t
	}
	// Pass 1: network-edge nodes only (Algorithm 2 steps 1–4).
	seedAndRelax(func(u int) bool { return t.Edge[u] })
	// Pass 2: interior local minima (steps 5–6) — only ∞ entries update.
	seedAndRelax(func(u int) bool { return true })
	return t
}

// BuildSync builds the synchronous-table of Eq. 9 with two-pass seeding.
func BuildSync(g *graph.Graph) *Table { return Build(g, HopWeight, TwoPass) }

// BuildAsync builds the duty-cycle table of Eq. 11 with two-pass seeding.
func BuildAsync(g *graph.Graph, s dutycycle.Schedule) *Table {
	return Build(g, CWTWeight(s), TwoPass)
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

// relaxScratch holds the per-node Dijkstra state reused across quadrants
// and passes: eligibility (entry was ∞ at pass start), settlement, and the
// frontier heap's backing array.
type relaxScratch struct {
	eligible []bool
	settled  []bool
	frontier pq
}

// relaxQuadrant runs Dijkstra for quadrant q from the given zero seeds.
// The constraint edge u→v exists when v ∈ N(u)∩Q_q(u); Dijkstra walks the
// reverse direction: settling v improves every u that sees v in its
// quadrant q. Only entries that were ∞ when the pass started may receive
// values, as Algorithm 2 requires ("update its ∞ value and only ∞ value");
// within the pass an unsettled entry may still tighten (Dijkstra's
// decrease-key — the node has not announced its value yet, so this is not
// a second information exchange).
//
// Each v settles at most once per quadrant over both passes (pass 2 pushes
// only entries that were ∞), so every directed edge is relaxed at most once
// per Build and its weight needs no cache. The weight is not evaluated at
// all when the relaxation cannot change u: u is settled, u is finite but
// not eligible in this pass, or E(u) ≤ E(v)+1 already, since w ≥ 1.
func relaxQuadrant(g *graph.Graph, w Weight, q geom.Quadrant, t *Table, seeds []graph.NodeID, rx *relaxScratch) {
	qi := q.Index()
	frontier := rx.frontier[:0]
	eligible, settled := rx.eligible, rx.settled
	for i := range eligible {
		eligible[i] = false
		settled[i] = false
	}
	for _, s := range seeds {
		frontier.push(pqItem{s, 0})
		eligible[s] = true
	}
	for len(frontier) > 0 {
		it := frontier.pop()
		v := it.node
		if settled[v] || it.dist > t.E[v][qi] {
			continue
		}
		settled[v] = true
		ev := t.E[v][qi]
		for _, u := range g.Adj(v) {
			eu := t.E[u][qi]
			fresh := math.IsInf(eu, 1)
			if !fresh && (!eligible[u] || settled[u] || eu <= ev+1) {
				continue // E(u) is fixed, or no weight ≥ 1 can lower it
			}
			if geom.QuadrantOf(g.Pos(u), g.Pos(v)) != q {
				continue // v is not in u's quadrant q
			}
			cand := w(u, v) + ev
			if fresh {
				t.E[u][qi] = cand
				t.Updates[u]++
				eligible[u] = true
				frontier.push(pqItem{u, cand})
			} else if cand < eu {
				t.E[u][qi] = cand
				frontier.push(pqItem{u, cand})
			}
		}
	}
	rx.frontier = frontier[:0]
}

// Score evaluates Eq. 10 for a candidate u: the maximum E_k(u) over
// quadrants k in which u still has uncovered neighbors (isUncovered
// reports coverage). Returns -1 when u has no uncovered neighbor at all.
// Completed tables have no ∞ entries (every quadrant chain terminates at
// an empty-quadrant node), so the result is finite in practice.
func (t *Table) Score(g *graph.Graph, u graph.NodeID, isUncovered func(v graph.NodeID) bool) float64 {
	best := -1.0
	for _, v := range g.Adj(u) {
		if !isUncovered(v) {
			continue
		}
		if e := t.E[u][geom.QuadrantOf(g.Pos(u), g.Pos(v)).Index()]; e > best {
			best = e
		}
	}
	return best
}

// ScoreCovered is Score with coverage given directly as a bitset — the
// form the scheduler's rollout loop calls, avoiding a per-evaluation
// predicate closure.
func (t *Table) ScoreCovered(g *graph.Graph, u graph.NodeID, covered bitset.Set) float64 {
	best := -1.0
	for _, v := range g.Adj(u) {
		if covered.Has(v) {
			continue
		}
		if e := t.E[u][geom.QuadrantOf(g.Pos(u), g.Pos(v)).Index()]; e > best {
			best = e
		}
	}
	return best
}
