// Package graph provides the network-graph substrate: a WSN topology as an
// undirected graph with node positions, adjacency lists, per-node neighbor
// bitsets (the representation the scheduler's conflict tests run on), and
// the breadth-first machinery (hop distances, eccentricity, diameter,
// connectivity) that both the baselines and the analytical bounds use.
package graph

import (
	"fmt"
	"sort"
	"sync/atomic"

	"mlbs/internal/bitset"
	"mlbs/internal/geom"
)

// NodeID identifies a node; IDs are dense in [0, N).
type NodeID = int

// Graph is an immutable undirected graph over nodes 0..n−1. Build one with
// NewBuilder (explicit edges) or FromUDG (unit-disk construction from
// positions). The zero value is an empty graph.
type Graph struct {
	pos    []geom.Point
	adj    [][]NodeID
	nbr    []bitset.Set // nbr[u] = bitset of N(u); u ∉ nbr[u]
	radius float64      // communication radius when built as a UDG, else 0
	edges  int
	// conn memoizes Connected: connUnknown until the first call. The
	// graph is immutable, so concurrent first callers compute the same
	// answer and storing it twice is harmless.
	conn atomic.Uint32
}

// Connected's memo states.
const (
	connUnknown uint32 = iota
	connYes
	connNo
)

// Builder accumulates nodes and edges and produces an immutable Graph.
type Builder struct {
	pos   []geom.Point
	edges map[[2]NodeID]bool
}

// NewBuilder returns a Builder for n nodes at the given positions. pos may
// be nil for abstract (position-free) graphs used in unit tests; quadrant-
// dependent code requires positions.
func NewBuilder(n int, pos []geom.Point) *Builder {
	if pos != nil && len(pos) != n {
		panic("graph: position count does not match node count")
	}
	if pos == nil {
		pos = make([]geom.Point, n)
	}
	return &Builder{pos: pos, edges: make(map[[2]NodeID]bool)}
}

// AddEdge records the undirected edge {u, v}. Self-loops are rejected:
// the paper's model is a simple graph.
func (b *Builder) AddEdge(u, v NodeID) *Builder {
	if u == v {
		panic("graph: self-loop")
	}
	if u < 0 || v < 0 || u >= len(b.pos) || v >= len(b.pos) {
		panic(fmt.Sprintf("graph: edge {%d,%d} out of range [0,%d)", u, v, len(b.pos)))
	}
	if u > v {
		u, v = v, u
	}
	b.edges[[2]NodeID{u, v}] = true
	return b
}

// Build finalizes the graph.
func (b *Builder) Build() *Graph {
	n := len(b.pos)
	g := &Graph{
		pos: append([]geom.Point(nil), b.pos...),
		adj: make([][]NodeID, n),
		nbr: make([]bitset.Set, n),
	}
	for i := 0; i < n; i++ {
		g.nbr[i] = bitset.New(n)
	}
	for e := range b.edges {
		u, v := e[0], e[1]
		g.adj[u] = append(g.adj[u], v)
		g.adj[v] = append(g.adj[v], u)
		g.nbr[u].Add(v)
		g.nbr[v].Add(u)
		g.edges++
	}
	for i := range g.adj {
		sort.Ints(g.adj[i])
	}
	return g
}

// FromUDG builds the unit-disk graph over the given positions: nodes are
// adjacent exactly when their distance is at most radius (Section III).
//
// The construction sits on the churn engine's hot path — every topology
// delta rebuilds the mutated graph before re-planning — so it avoids maps
// and per-node sorting entirely: candidate pairs come from a dense
// counting-sorted cell grid, neighbor bitsets live in one shared slab, and
// the sorted adjacency lists are read back out of the bitsets (ascending
// by construction) into a second slab.
func FromUDG(pos []geom.Point, radius float64) *Graph {
	if radius <= 0 {
		panic("graph: non-positive radius")
	}
	n := len(pos)
	g := &Graph{
		pos: append([]geom.Point(nil), pos...),
		adj: make([][]NodeID, n),
		nbr: make([]bitset.Set, n),
	}
	// One slab backs every neighbor bitset: n allocations → 1.
	words := bitset.WordsFor(n)
	slab := make([]uint64, n*words)
	for i := range g.nbr {
		g.nbr[i] = bitset.Set(slab[i*words : (i+1)*words])
	}
	forEachPair(pos, radius, func(i, j NodeID) {
		g.nbr[i].Add(j)
		g.nbr[j].Add(i)
		g.edges++
	})
	// Adjacency lists read back from the bitsets: ascending order for
	// free, one slab for all lists.
	adjSlab := make([]NodeID, 0, 2*g.edges)
	for u := 0; u < n; u++ {
		start := len(adjSlab)
		adjSlab = g.nbr[u].AppendMembers(adjSlab)
		g.adj[u] = adjSlab[start:len(adjSlab):len(adjSlab)]
	}
	g.radius = radius
	return g
}

// forEachPair calls link exactly once per unordered position pair within
// radius, using grid bucketing (candidate pairs only within neighboring
// cells of side radius — ~O(n · density) instead of O(n²)).
func forEachPair(pos []geom.Point, radius float64, link func(i, j NodeID)) {
	n := len(pos)
	if n == 0 {
		return
	}
	// Dense grid path: counting-sort nodes into cells of an explicit
	// (nx × ny) array. Degenerate geometry (non-finite coordinates, a
	// bounding box spanning absurdly many cells) falls back to a map grid.
	minX, minY := pos[0].X, pos[0].Y
	maxX, maxY := minX, minY
	finite := true
	for _, p := range pos {
		if p.X < minX {
			minX = p.X
		}
		if p.X > maxX {
			maxX = p.X
		}
		if p.Y < minY {
			minY = p.Y
		}
		if p.Y > maxY {
			maxY = p.Y
		}
		if p.X != p.X || p.Y != p.Y || p.X-p.X != 0 || p.Y-p.Y != 0 {
			finite = false
			break
		}
	}
	spanX, spanY := (maxX-minX)/radius, (maxY-minY)/radius
	if !finite || !(spanX >= 0) || !(spanY >= 0) || spanX > 4e6 || spanY > 4e6 ||
		(spanX+1)*(spanY+1) > float64(4*n+64) {
		forEachPairMap(pos, radius, link)
		return
	}
	nx, ny := int(spanX)+1, int(spanY)+1
	cells := nx * ny
	cellOf := make([]int32, n)
	count := make([]int32, cells+1)
	for i, p := range pos {
		c := int32(int((p.X-minX)/radius)*ny + int((p.Y-minY)/radius))
		cellOf[i] = c
		count[c+1]++
	}
	for c := 0; c < cells; c++ {
		count[c+1] += count[c]
	}
	nodes := make([]int32, n)
	fill := append([]int32(nil), count[:cells]...)
	for i := range pos {
		c := cellOf[i]
		nodes[fill[c]] = int32(i)
		fill[c]++
	}
	for i, p := range pos {
		cx, cy := int(cellOf[i])/ny, int(cellOf[i])%ny
		for dx := -1; dx <= 1; dx++ {
			x := cx + dx
			if x < 0 || x >= nx {
				continue
			}
			for dy := -1; dy <= 1; dy++ {
				y := cy + dy
				if y < 0 || y >= ny {
					continue
				}
				c := x*ny + y
				for _, j32 := range nodes[count[c]:count[c+1]] {
					j := int(j32)
					// Each unordered pair {i, j} is visited exactly once:
					// from its lower endpoint, with j in i's 3×3 cell hood.
					if j <= i {
						continue
					}
					if geom.WithinRange(p, pos[j], radius) {
						link(i, j)
					}
				}
			}
		}
	}
}

// forEachPairMap is the map-bucketed fallback for degenerate geometry.
func forEachPairMap(pos []geom.Point, radius float64, link func(i, j NodeID)) {
	cell := func(p geom.Point) [2]int {
		return [2]int{int(p.X / radius), int(p.Y / radius)}
	}
	buckets := make(map[[2]int][]NodeID, len(pos))
	for i, p := range pos {
		c := cell(p)
		buckets[c] = append(buckets[c], i)
	}
	for i, p := range pos {
		c := cell(p)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range buckets[[2]int{c[0] + dx, c[1] + dy}] {
					if j <= i {
						continue
					}
					if geom.WithinRange(p, pos[j], radius) {
						link(i, j)
					}
				}
			}
		}
	}
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.edges }

// Radius returns the UDG communication radius, or 0 for abstract graphs.
func (g *Graph) Radius() float64 { return g.radius }

// Pos returns the position of node u.
func (g *Graph) Pos(u NodeID) geom.Point { return g.pos[u] }

// Positions returns the backing position slice; callers must not modify it.
func (g *Graph) Positions() []geom.Point { return g.pos }

// Adj returns the sorted adjacency list of u; callers must not modify it.
func (g *Graph) Adj(u NodeID) []NodeID { return g.adj[u] }

// Nbr returns the neighbor bitset of u; callers must not modify it.
func (g *Graph) Nbr(u NodeID) bitset.Set { return g.nbr[u] }

// Degree returns |N(u)|.
func (g *Graph) Degree(u NodeID) int { return len(g.adj[u]) }

// HasEdge reports whether {u,v} ∈ E.
func (g *Graph) HasEdge(u, v NodeID) bool { return g.nbr[u].Has(v) }

// MaxDegree returns the maximum node degree (0 for the empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for _, a := range g.adj {
		if len(a) > max {
			max = len(a)
		}
	}
	return max
}

// AvgDegree returns the mean node degree.
func (g *Graph) AvgDegree() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	return 2 * float64(g.edges) / float64(len(g.adj))
}

// BFS returns hop distances from source s; unreachable nodes get -1.
func (g *Graph) BFS(s NodeID) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 0
	queue := []NodeID{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// MultiSourceBFS returns, for every node, the hop distance to the nearest
// node in the sources set; nodes in sources get 0, unreachable nodes -1.
// dist may be nil, in which case a fresh slice is allocated; passing
// reusable buffers keeps repeated calls allocation-free. The search's
// bit-parallel hop bound is tested against it.
func (g *Graph) MultiSourceBFS(sources bitset.Set, dist []int, queue []NodeID) ([]int, []NodeID) {
	n := g.N()
	if dist == nil {
		dist = make([]int, n)
	}
	for i := range dist {
		dist[i] = -1
	}
	queue = queue[:0]
	sources.ForEach(func(u int) {
		dist[u] = 0
		queue = append(queue, u)
	})
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist, queue
}

// Eccentricity returns the maximum hop distance from s to any reachable
// node, and whether all nodes are reachable.
func (g *Graph) Eccentricity(s NodeID) (ecc int, connected bool) {
	dist := g.BFS(s)
	connected = true
	for _, d := range dist {
		if d < 0 {
			connected = false
			continue
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc, connected
}

// Connected reports whether the graph is connected (true for n ≤ 1). The
// first call runs one BFS and later calls read the memo, so topology
// generation and instance validation share one traversal; it is safe for
// concurrent callers.
func (g *Graph) Connected() bool {
	switch g.conn.Load() {
	case connYes:
		return true
	case connNo:
		return false
	}
	ok := true
	if g.N() > 1 {
		_, ok = g.Eccentricity(0)
	}
	if ok {
		g.conn.Store(connYes)
	} else {
		g.conn.Store(connNo)
	}
	return ok
}

// Diameter returns the maximum eccentricity over all nodes, or -1 when the
// graph is disconnected.
func (g *Graph) Diameter() int {
	d := 0
	for u := 0; u < g.N(); u++ {
		ecc, ok := g.Eccentricity(u)
		if !ok {
			return -1
		}
		if ecc > d {
			d = ecc
		}
	}
	return d
}

// Components returns the connected components as slices of node IDs, each
// sorted, largest first.
func (g *Graph) Components() [][]NodeID {
	seen := make([]bool, g.N())
	var comps [][]NodeID
	for s := 0; s < g.N(); s++ {
		if seen[s] {
			continue
		}
		var comp []NodeID
		queue := []NodeID{s}
		seen[s] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			comp = append(comp, u)
			for _, v := range g.adj[u] {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(i, j int) bool {
		if len(comps[i]) != len(comps[j]) {
			return len(comps[i]) > len(comps[j])
		}
		return comps[i][0] < comps[j][0]
	})
	return comps
}

// Layers partitions nodes by hop distance from s: Layers(s)[k] holds the
// nodes at distance k, sorted. Unreachable nodes are omitted. This is the
// BFS layering that the 26-/17-approximation baselines schedule over.
func (g *Graph) Layers(s NodeID) [][]NodeID {
	dist := g.BFS(s)
	max := 0
	for _, d := range dist {
		if d > max {
			max = d
		}
	}
	layers := make([][]NodeID, max+1)
	for u, d := range dist {
		if d >= 0 {
			layers[d] = append(layers[d], u)
		}
	}
	for _, l := range layers {
		sort.Ints(l)
	}
	return layers
}

// DistinctPositions reports whether every node has its own position —
// the precondition for quadrant-based machinery (the E-model). Graphs
// built without positions place all nodes at the origin and return false.
func (g *Graph) DistinctPositions() bool {
	seen := make(map[geom.Point]bool, len(g.pos))
	for _, p := range g.pos {
		if seen[p] {
			return false
		}
		seen[p] = true
	}
	return true
}

// NeighborsInQuadrant returns the neighbors of u lying in quadrant q of u,
// per the paper's Q_i(u) notation. Requires positions.
func (g *Graph) NeighborsInQuadrant(u NodeID, q geom.Quadrant) []NodeID {
	var out []NodeID
	for _, v := range g.adj[u] {
		if geom.QuadrantOf(g.pos[u], g.pos[v]) == q {
			out = append(out, v)
		}
	}
	return out
}

// String summarizes the graph for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d r=%.1f}", g.N(), g.M(), g.radius)
}
