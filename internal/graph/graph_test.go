package graph

import (
	"sort"
	"testing"
	"testing/quick"

	"mlbs/internal/bitset"
	"mlbs/internal/geom"
	"mlbs/internal/rng"
)

// pathGraph builds 0—1—2—…—(n−1).
func pathGraph(n int) *Graph {
	b := NewBuilder(n, nil)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	g := NewBuilder(4, nil).AddEdge(0, 1).AddEdge(1, 2).AddEdge(1, 0).Build()
	if g.N() != 4 {
		t.Fatalf("N = %d, want 4", g.N())
	}
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2 (duplicate edge collapsed)", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge {0,1} missing or not symmetric")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("phantom edge {0,2}")
	}
	if g.Degree(1) != 2 || g.Degree(3) != 0 {
		t.Fatalf("degrees wrong: %d %d", g.Degree(1), g.Degree(3))
	}
}

func TestBuilderSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop must panic")
		}
	}()
	NewBuilder(2, nil).AddEdge(1, 1)
}

func TestBuilderRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range edge must panic")
		}
	}()
	NewBuilder(2, nil).AddEdge(0, 5)
}

func TestAdjSortedAndNbrConsistent(t *testing.T) {
	g := NewBuilder(5, nil).AddEdge(3, 1).AddEdge(3, 0).AddEdge(3, 4).Build()
	adj := g.Adj(3)
	want := []NodeID{0, 1, 4}
	if len(adj) != 3 {
		t.Fatalf("Adj(3) = %v", adj)
	}
	for i, v := range want {
		if adj[i] != v {
			t.Fatalf("Adj(3) = %v, want %v", adj, want)
		}
		if !g.Nbr(3).Has(v) {
			t.Fatalf("Nbr(3) missing %d", v)
		}
	}
	if g.Nbr(3).Has(3) {
		t.Fatal("node in its own neighborhood")
	}
}

func TestFromUDG(t *testing.T) {
	pos := []geom.Point{{X: 0, Y: 0}, {X: 5, Y: 0}, {X: 15, Y: 0}, {X: 15, Y: 8}}
	g := FromUDG(pos, 10)
	wantEdges := [][2]int{{0, 1}, {1, 2}, {2, 3}}
	if g.M() != len(wantEdges) {
		t.Fatalf("M = %d, want %d", g.M(), len(wantEdges))
	}
	for _, e := range wantEdges {
		if !g.HasEdge(e[0], e[1]) {
			t.Fatalf("missing edge %v", e)
		}
	}
	if g.Radius() != 10 {
		t.Fatalf("Radius = %f", g.Radius())
	}
}

func TestFromUDGBoundaryInclusive(t *testing.T) {
	g := FromUDG([]geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}}, 10)
	if !g.HasEdge(0, 1) {
		t.Fatal("distance exactly equal to radius must be an edge")
	}
}

// FromUDG must agree with the naive O(n²) construction.
func TestFromUDGMatchesNaive(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(80)
		pos := make([]geom.Point, n)
		for i := range pos {
			pos[i] = geom.Point{X: r.InRange(0, 50), Y: r.InRange(0, 50)}
		}
		g := FromUDG(pos, 10)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				want := geom.WithinRange(pos[i], pos[j], 10)
				if g.HasEdge(i, j) != want {
					t.Fatalf("trial %d: edge {%d,%d} = %v, want %v", trial, i, j, g.HasEdge(i, j), want)
				}
			}
		}
	}
}

func TestBFS(t *testing.T) {
	g := pathGraph(5)
	dist := g.BFS(0)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if dist[i] != want {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[i], want)
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := NewBuilder(3, nil).AddEdge(0, 1).Build()
	dist := g.BFS(0)
	if dist[2] != -1 {
		t.Fatalf("unreachable node dist = %d, want -1", dist[2])
	}
}

func TestMultiSourceBFS(t *testing.T) {
	g := pathGraph(7)
	sources := bitset.FromMembers(7, 0, 6)
	dist, _ := g.MultiSourceBFS(sources, nil, nil)
	want := []int{0, 1, 2, 3, 2, 1, 0}
	for i := range want {
		if dist[i] != want[i] {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[i], want[i])
		}
	}
}

func TestMultiSourceBFSReusesBuffers(t *testing.T) {
	g := pathGraph(5)
	dist := make([]int, 5)
	queue := make([]NodeID, 0, 5)
	d1, q1 := g.MultiSourceBFS(bitset.FromMembers(5, 0), dist, queue)
	if &d1[0] != &dist[0] {
		t.Fatal("dist buffer not reused")
	}
	d2, _ := g.MultiSourceBFS(bitset.FromMembers(5, 4), d1, q1)
	if d2[0] != 4 {
		t.Fatalf("second reuse produced wrong distances: %v", d2)
	}
}

func TestEccentricityDiameter(t *testing.T) {
	g := pathGraph(6)
	ecc, ok := g.Eccentricity(0)
	if !ok || ecc != 5 {
		t.Fatalf("Eccentricity(0) = %d,%v want 5,true", ecc, ok)
	}
	ecc, _ = g.Eccentricity(3)
	if ecc != 3 {
		t.Fatalf("Eccentricity(3) = %d, want 3", ecc)
	}
	if d := g.Diameter(); d != 5 {
		t.Fatalf("Diameter = %d, want 5", d)
	}
}

func TestDiameterDisconnected(t *testing.T) {
	g := NewBuilder(4, nil).AddEdge(0, 1).AddEdge(2, 3).Build()
	if d := g.Diameter(); d != -1 {
		t.Fatalf("Diameter of disconnected graph = %d, want -1", d)
	}
	if g.Connected() {
		t.Fatal("Connected = true for disconnected graph")
	}
}

// TestConnectedMemo checks the memoized Connected against a fresh BFS
// (one component, or n ≤ 1) on connected and disconnected graphs of
// every small size, abstract and unit-disk, with the first call made by
// several goroutines at once so -race sees the memo's publication. Every
// caller, first or later, must read the BFS answer.
func TestConnectedMemo(t *testing.T) {
	r := rng.New(31)
	var graphs []*Graph
	for n := 0; n <= 5; n++ {
		graphs = append(graphs, NewBuilder(n, nil).Build(), pathGraph(n))
	}
	graphs = append(graphs,
		NewBuilder(4, nil).AddEdge(0, 1).AddEdge(2, 3).Build(),
		NewBuilder(3, nil).AddEdge(1, 2).Build(),
		&Graph{})
	for _, side := range []float64{20, 60, 200} {
		pos := make([]geom.Point, 70)
		for i := range pos {
			pos[i] = geom.Point{X: r.InRange(0, side), Y: r.InRange(0, side)}
		}
		graphs = append(graphs, FromUDG(pos, 10))
	}
	seen := map[bool]int{}
	for gi, g := range graphs {
		want := g.N() <= 1 || len(g.Components()) == 1
		seen[want]++
		const callers = 4
		got := make(chan bool, callers)
		for i := 0; i < callers; i++ {
			go func() { got <- g.Connected() }()
		}
		for i := 0; i < callers; i++ {
			if c := <-got; c != want {
				t.Fatalf("graph %d (n=%d): concurrent Connected = %v, BFS says %v", gi, g.N(), c, want)
			}
		}
		if c := g.Connected(); c != want {
			t.Fatalf("graph %d (n=%d): memoized Connected = %v, BFS says %v", gi, g.N(), c, want)
		}
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Fatalf("cases cover connected=%d disconnected=%d graphs; want both", seen[true], seen[false])
	}
}

func TestComponents(t *testing.T) {
	g := NewBuilder(6, nil).AddEdge(0, 1).AddEdge(1, 2).AddEdge(4, 5).Build()
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3", len(comps))
	}
	if len(comps[0]) != 3 || comps[0][0] != 0 {
		t.Fatalf("largest component = %v", comps[0])
	}
	if len(comps[1]) != 2 || comps[1][0] != 4 {
		t.Fatalf("second component = %v", comps[1])
	}
	if len(comps[2]) != 1 || comps[2][0] != 3 {
		t.Fatalf("singleton component = %v", comps[2])
	}
}

func TestLayers(t *testing.T) {
	// Star with an extra tail: 0 center; 1,2,3 at hop 1; 4 at hop 2.
	g := NewBuilder(5, nil).AddEdge(0, 1).AddEdge(0, 2).AddEdge(0, 3).AddEdge(3, 4).Build()
	layers := g.Layers(0)
	if len(layers) != 3 {
		t.Fatalf("layer count = %d, want 3", len(layers))
	}
	if len(layers[0]) != 1 || layers[0][0] != 0 {
		t.Fatalf("layer 0 = %v", layers[0])
	}
	if len(layers[1]) != 3 {
		t.Fatalf("layer 1 = %v", layers[1])
	}
	if len(layers[2]) != 1 || layers[2][0] != 4 {
		t.Fatalf("layer 2 = %v", layers[2])
	}
}

func TestDegreeStats(t *testing.T) {
	g := NewBuilder(4, nil).AddEdge(0, 1).AddEdge(0, 2).AddEdge(0, 3).Build()
	if g.MaxDegree() != 3 {
		t.Fatalf("MaxDegree = %d, want 3", g.MaxDegree())
	}
	if got := g.AvgDegree(); got != 1.5 {
		t.Fatalf("AvgDegree = %f, want 1.5", got)
	}
}

func TestNeighborsInQuadrant(t *testing.T) {
	pos := []geom.Point{{X: 0, Y: 0}, {X: 5, Y: 5}, {X: -5, Y: 5}, {X: -5, Y: -5}, {X: 5, Y: -5}}
	b := NewBuilder(5, pos)
	for v := 1; v < 5; v++ {
		b.AddEdge(0, v)
	}
	g := b.Build()
	for i, q := range geom.Quadrants {
		nbrs := g.NeighborsInQuadrant(0, q)
		if len(nbrs) != 1 || nbrs[0] != i+1 {
			t.Fatalf("NeighborsInQuadrant(0, %v) = %v, want [%d]", q, nbrs, i+1)
		}
	}
}

// Property: BFS distances satisfy the triangle-ish relation along edges:
// |dist(u) − dist(v)| ≤ 1 for every edge {u,v} in a connected graph.
func TestQuickBFSLipschitz(t *testing.T) {
	r := rng.New(31)
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 2 + src.Intn(40)
		b := NewBuilder(n, nil)
		// Random connected graph: spanning chain + random extras.
		for i := 1; i < n; i++ {
			b.AddEdge(i, src.Intn(i))
		}
		for k := 0; k < n; k++ {
			u, v := src.Intn(n), src.Intn(n)
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.Build()
		dist := g.BFS(r.Intn(n))
		for u := 0; u < n; u++ {
			for _, v := range g.Adj(u) {
				d := dist[u] - dist[v]
				if d < -1 || d > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: multi-source BFS equals the pointwise minimum of per-source BFS.
func TestQuickMultiSourceMin(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 3 + src.Intn(30)
		b := NewBuilder(n, nil)
		for i := 1; i < n; i++ {
			b.AddEdge(i, src.Intn(i))
		}
		g := b.Build()
		s1, s2 := src.Intn(n), src.Intn(n)
		sources := bitset.FromMembers(n, s1, s2)
		got, _ := g.MultiSourceBFS(sources, nil, nil)
		d1, d2 := g.BFS(s1), g.BFS(s2)
		for i := 0; i < n; i++ {
			want := d1[i]
			if d2[i] < want {
				want = d2[i]
			}
			if got[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFromUDG300(b *testing.B) {
	r := rng.New(8)
	pos := make([]geom.Point, 300)
	for i := range pos {
		pos[i] = geom.Point{X: r.InRange(0, 50), Y: r.InRange(0, 50)}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = FromUDG(pos, 10)
	}
}

func BenchmarkMultiSourceBFS(b *testing.B) {
	r := rng.New(9)
	pos := make([]geom.Point, 300)
	for i := range pos {
		pos[i] = geom.Point{X: r.InRange(0, 50), Y: r.InRange(0, 50)}
	}
	g := FromUDG(pos, 10)
	sources := bitset.FromMembers(300, 0, 13, 77)
	dist := make([]int, 300)
	queue := make([]NodeID, 0, 300)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dist, queue = g.MultiSourceBFS(sources, dist, queue)
	}
}

// TestFromUDGMatchesNaiveDegenerate pins the grid-bucketed construction
// (dense counting-sort grid with map fallback) against the O(n²)
// definition on geometry the paper never produces: negative coordinates,
// varying radii, and outlier points that force the map-grid fallback.
func TestFromUDGMatchesNaiveDegenerate(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(120)
		radius := 0.5 + r.Float64()*12
		pos := make([]geom.Point, n)
		for i := range pos {
			pos[i] = geom.Point{X: r.InRange(-40, 60), Y: r.InRange(-40, 60)}
		}
		if trial%5 == 4 {
			// Degenerate spread: forces the map-grid fallback.
			pos[0].X += 1e9
		}
		g := FromUDG(pos, radius)
		edges := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				want := geom.WithinRange(pos[i], pos[j], radius)
				if g.HasEdge(i, j) != want {
					t.Fatalf("trial %d: edge {%d,%d} = %v, want %v", trial, i, j, g.HasEdge(i, j), want)
				}
				if want {
					edges++
				}
			}
		}
		if g.M() != edges {
			t.Fatalf("trial %d: M()=%d, naive count %d", trial, g.M(), edges)
		}
		for u := 0; u < n; u++ {
			if !sort.IntsAreSorted(g.Adj(u)) {
				t.Fatalf("trial %d: Adj(%d) not sorted: %v", trial, u, g.Adj(u))
			}
			if len(g.Adj(u)) != g.Nbr(u).Len() {
				t.Fatalf("trial %d: adj/nbr cardinality mismatch at %d", trial, u)
			}
		}
	}
}
