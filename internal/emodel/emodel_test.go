package emodel

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"mlbs/internal/bitset"
	"mlbs/internal/dutycycle"
	"mlbs/internal/geom"
	"mlbs/internal/graph"
	"mlbs/internal/rng"
	"mlbs/internal/topology"
)

// lineGraph places n nodes on the x-axis, unit spacing, radius 1.
func lineGraph(n int) *graph.Graph {
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{X: float64(i), Y: 0}
	}
	return graph.FromUDG(pos, 1)
}

func TestLineSyncE(t *testing.T) {
	const n = 5
	g := lineGraph(n)
	tab := BuildHop(g)
	for i := 0; i < n; i++ {
		// Eastern neighbor (dx>0, dy=0) is in Q1; western in Q3.
		if got := tab.Value(i, geom.Q1); got != float64(n-1-i) {
			t.Fatalf("E1(%d) = %v, want %d", i, got, n-1-i)
		}
		if got := tab.Value(i, geom.Q3); got != float64(i) {
			t.Fatalf("E3(%d) = %v, want %d", i, got, i)
		}
		// No neighbors north or south: quadrants 2 and 4 are empty ⇒ 0.
		if tab.Value(i, geom.Q2) != 0 || tab.Value(i, geom.Q4) != 0 {
			t.Fatalf("node %d: E2/E4 = %v/%v, want 0/0",
				i, tab.Value(i, geom.Q2), tab.Value(i, geom.Q4))
		}
	}
}

func TestEdgeNodesGrid(t *testing.T) {
	// 5×5 unit grid with radius 1.5 (8-connected): the 16 perimeter nodes
	// are edge nodes, the 9 interior ones are not.
	var pos []geom.Point
	for y := 0; y < 5; y++ {
		for x := 0; x < 5; x++ {
			pos = append(pos, geom.Point{X: float64(x), Y: float64(y)})
		}
	}
	g := graph.FromUDG(pos, 1.5)
	edge := EdgeNodes(g)
	for i, p := range pos {
		perimeter := p.X == 0 || p.X == 4 || p.Y == 0 || p.Y == 4
		if edge[i] != perimeter {
			t.Fatalf("node %d at %v: edge=%v, want %v", i, p, edge[i], perimeter)
		}
	}
}

func TestEmptyQuadrantIsZeroAndConverse(t *testing.T) {
	d, err := topology.Generate(topology.PaperConfig(120), 5)
	if err != nil {
		t.Fatal(err)
	}
	tab := BuildHop(d.G)
	for u := 0; u < d.G.N(); u++ {
		for qi, q := range geom.Quadrants {
			empty := len(d.G.NeighborsInQuadrant(u, q)) == 0
			zero := tab.E[u][qi] == 0
			if empty != zero {
				t.Fatalf("node %d %v: empty=%v but E=%v", u, q, empty, tab.E[u][qi])
			}
		}
	}
}

func TestAllEntriesFinite(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		d, err := topology.Generate(topology.PaperConfig(100), seed)
		if err != nil {
			t.Fatal(err)
		}
		tab := BuildHop(d.G)
		for u := 0; u < d.G.N(); u++ {
			for qi := range geom.Quadrants {
				if math.IsInf(tab.E[u][qi], 1) {
					t.Fatalf("seed %d: E[%d][%d] = ∞ after build", seed, u, qi)
				}
			}
		}
	}
}

func TestBuildSatisfiesRecurrence(t *testing.T) {
	d, err := topology.Generate(topology.PaperConfig(100), 7)
	if err != nil {
		t.Fatal(err)
	}
	g := d.G
	tab := BuildHop(g)
	for u := 0; u < g.N(); u++ {
		for qi, q := range geom.Quadrants {
			nbrs := g.NeighborsInQuadrant(u, q)
			if len(nbrs) == 0 {
				if tab.E[u][qi] != 0 {
					t.Fatalf("empty quadrant E = %v", tab.E[u][qi])
				}
				continue
			}
			min := math.Inf(1)
			for _, v := range nbrs {
				if e := 1 + tab.E[v][qi]; e < min {
					min = e
				}
			}
			if tab.E[u][qi] != min {
				t.Fatalf("Eq.9 violated at node %d %v: E=%v, 1+min=%v", u, q, tab.E[u][qi], min)
			}
		}
	}
}

// Theorem 3: each node's tuple entry settles exactly once per quadrant, so
// every node records exactly 4 updates (every entry receives one value).
func TestTheorem3UpdateCount(t *testing.T) {
	d, err := topology.Generate(topology.PaperConfig(200), 13)
	if err != nil {
		t.Fatal(err)
	}
	tab := BuildHop(d.G)
	for u, c := range tab.Updates {
		if c != 4 {
			t.Fatalf("node %d settled %d entries, want exactly 4 (one per quadrant)", u, c)
		}
	}
}

func TestAsyncWeightsAreCWT(t *testing.T) {
	// Two nodes on a line, u west of v. With phases u=0, v=1 and r=4 the
	// CWT from u to v is 1, so E_Q1(u) = 1 (v is u's eastern edge node).
	pos := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}}
	g := graph.FromUDG(pos, 1)
	s := dutycycle.NewPeriodicPhase(4, []int{0, 1})
	tab := Build(g, CWTWeight(s))
	if got := tab.Value(0, geom.Q1); got != 1 {
		t.Fatalf("async E1(0) = %v, want 1 (CWT)", got)
	}
	// Reverse direction: from v's wake slot 1 the wait for u (phase 0) is 3.
	if got := tab.Value(1, geom.Q3); got != 3 {
		t.Fatalf("async E3(1) = %v, want 3 (CWT)", got)
	}
}

func TestScore(t *testing.T) {
	g := lineGraph(4)
	tab := BuildHop(g)
	covered := bitset.New(4)
	covered.Add(0)
	covered.Add(1)
	// Node 1's only uncovered neighbor is 2, east (Q1): E1(1) = 2.
	if got := tab.Score(1, covered); got != 2 {
		t.Fatalf("Score(1) = %v, want 2", got)
	}
	// Node 0 has no uncovered neighbors.
	if got := tab.Score(0, covered); got != -1 {
		t.Fatalf("Score(0) = %v, want -1", got)
	}
}

func TestMaxFinite(t *testing.T) {
	g := lineGraph(6)
	tab := BuildHop(g)
	if got := tab.MaxFinite(); got != 5 {
		t.Fatalf("MaxFinite = %v, want 5", got)
	}
}

// Property: on random connected deployments every entry is finite and zero
// exactly on empty quadrants.
func TestQuickBuildInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := topology.Config{N: 40, AreaSide: 25, Radius: 10, MaxRetries: 50}
		d, err := topology.Generate(cfg, seed)
		if err != nil {
			return true // rare disconnected-only seeds are not the property under test
		}
		tab := BuildHop(d.G)
		for u := 0; u < d.G.N(); u++ {
			for qi, q := range geom.Quadrants {
				if math.IsInf(tab.E[u][qi], 1) {
					return false
				}
				empty := len(d.G.NeighborsInQuadrant(u, q)) == 0
				if (tab.E[u][qi] == 0) != empty {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeNodesIncludeHull(t *testing.T) {
	r := rng.New(3)
	pos := make([]geom.Point, 60)
	for i := range pos {
		pos[i] = geom.Point{X: r.InRange(0, 30), Y: r.InRange(0, 30)}
	}
	g := graph.FromUDG(pos, 12)
	edge := EdgeNodes(g)
	for _, h := range geom.ConvexHull(pos) {
		if !edge[h] {
			t.Fatalf("hull node %d not flagged as edge", h)
		}
	}
}

func BenchmarkBuildSync300(b *testing.B) {
	d, err := topology.Generate(topology.PaperConfig(300), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = BuildHop(d.G)
	}
}

// TestCWTWeightMatchesScan is the oracle for the Uniform offset table: over
// random node counts, rates, period lengths and seeds, the tabled weight
// equals the generic NextAwake scan bit for bit on every directed pair.
// The cycle counts straddle the table's 64-cycle words (63, 64, 65, 129)
// and the rates straddle its bit planes (255, 256, 257, 65536).
func TestCWTWeightMatchesScan(t *testing.T) {
	src := rng.New(2012)
	for _, r := range []int{1, 2, 3, 10, 50, 255, 256, 257, 300, 1 << 16} {
		for _, cycles := range []int{1, 2, 7, 63, 64, 65, 129, 0} {
			for trial := 0; trial < 3; trial++ {
				n := 2 + src.Intn(8)
				s := dutycycle.NewUniform(n, r, src.Uint64(), cycles)
				if s.OffsetTable() == nil {
					t.Fatalf("r=%d cycles=%d n=%d: no offset table", r, cycles, n)
				}
				w := CWTWeight(s)
				for u := 0; u < n; u++ {
					for v := 0; v < n; v++ {
						got, want := w(u, v), dutycycle.MeanCWT(s, u, v)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("r=%d cycles=%d n=%d: weight(%d,%d) = %v, scan %v", r, cycles, n, u, v, got, want)
						}
					}
				}
			}
		}
	}
}

// TestCWTWeightWithoutTable checks the fallback for schedules whose offsets
// do not fit the table: the weight is still the generic scan.
func TestCWTWeightWithoutTable(t *testing.T) {
	for _, s := range []*dutycycle.Uniform{
		dutycycle.NewUniform(3, 1<<16+1, 9, 2), // offsets above uint16
		dutycycle.NewUniform(2, 2, 9, 1<<22),   // more than 2^23 entries
	} {
		if s.OffsetTable() != nil {
			t.Fatalf("r=%d cycles=%d: offset table built past its limits", s.Rate(), s.Cycles())
		}
		w := CWTWeight(s)
		if got, want := w(0, 1), dutycycle.MeanCWT(s, 0, 1); got != want {
			t.Fatalf("r=%d cycles=%d: weight %v, scan %v", s.Rate(), s.Cycles(), got, want)
		}
	}
}

func BenchmarkBuildAsync100(b *testing.B) {
	d, err := topology.Generate(topology.PaperConfig(100), 1)
	if err != nil {
		b.Fatal(err)
	}
	s := dutycycle.NewUniform(100, 10, 1^0xA5, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Build(d.G, CWTWeight(s))
	}
}

// buildDigest is a SHA-256 over a table's E bits and Updates and the
// graph's edge-node flags, in node order.
func buildDigest(g *graph.Graph, tab *Table) string {
	edge := EdgeNodes(g)
	h := sha256.New()
	var b [8]byte
	for u := range tab.E {
		for _, e := range tab.E[u] {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(e))
			h.Write(b[:])
		}
		binary.LittleEndian.PutUint64(b[:], uint64(tab.Updates[u]))
		h.Write(b[:])
		if edge[u] {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBuildTableGolden pins BuildHop (synchronous) and Build (four
// duty-cycle rates) bit for bit — every E entry, Theorem 3's update counts
// and the edge flags — on paper deployments. The digests were recorded
// from the two-pass Dijkstra build with its per-edge weight cache, uint16
// offset rows and edge flags stored in the table; the one-pass build, the
// plane-sliced table, the lazy relaxation and the quadrant rows with the
// level BFS reproduce them exactly, with EdgeNodes hashed in place of the
// stored flags.
func TestBuildTableGolden(t *testing.T) {
	want := map[string]string{
		"n100/sync": "c75e615ab96257bf1ce3e6cffa00e2a35e29f700808acf553b5a50b2c67847f4",
		"n100/r2":   "892e25ae3deef585a3694e9bd002d1cc4fdda952bd579e7af9f3b45a525e0e9b",
		"n100/r10":  "4d54e631b55411173b33ce4f666e08357b24a1545e3419bc46fd1fcf291c0c17",
		"n100/r50":  "f03d76c1a9b7f3524f029d035c922fc05e14e1f9fe17a5bc04901a56d4bde26c",
		"n100/r300": "2526d11c47ee3104174fe08d2044d110b5ee2c901d9f40986b30dc5398814ec3",
		"n300/sync": "f13035ed0e33fa497f1de73c88c9c114092e2f15fab4e2ec8e187852f14ab9b7",
		"n300/r2":   "88c34b64343b5bf1d5d9938b69bc6eff0aac637729c4bd191aa766b73256651b",
		"n300/r10":  "77aba08199560f40b6b87899dde2db2eb3343e251735110c14ab83b16f096c3d",
		"n300/r50":  "b69b81649f86528478a14e856f8eb3b7102f14d9aca8f8226254452527c7bd90",
		"n300/r300": "db92d2607a1975a1955989a74686f8d0e262291812a9f29af824adfe1c1a1871",
	}
	for _, n := range []int{100, 300} {
		d, err := topology.Generate(topology.PaperConfig(n), 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []int{1, 2, 10, 50, 300} {
			tab, wname := BuildHop(d.G), "sync"
			if r > 1 {
				tab, wname = Build(d.G, CWTWeight(dutycycle.NewUniform(n, r, 1^0xA5, 0))), fmt.Sprintf("r%d", r)
			}
			name := fmt.Sprintf("n%d/%s", n, wname)
			if got := buildDigest(d.G, tab); got != want[name] {
				t.Errorf("%s: digest %s, want %s", name, got, want[name])
			}
		}
	}
}

// TestWeightEvaluatedOnceAtMost pins the lazy relaxation: across all four
// quadrants Build asks for each directed edge's weight
// at most once, and skips every edge whose relaxation cannot lower an entry.
// On the paper's n=100, r=10, seed-1 deployment that is 635 evaluations for
// its 984 directed edges.
func TestWeightEvaluatedOnceAtMost(t *testing.T) {
	for _, n := range []int{60, 100, 300} {
		d, err := topology.Generate(topology.PaperConfig(n), 1)
		if err != nil {
			t.Fatal(err)
		}
		edges := 0
		for u := 0; u < n; u++ {
			edges += d.G.Degree(u)
		}
		for _, r := range []int{1, 10} {
			base := HopWeight
			if r > 1 {
				base = CWTWeight(dutycycle.NewUniform(n, r, 1^0xA5, 0))
			}
			seen := make(map[[2]graph.NodeID]bool)
			calls := 0
			w := func(u, v graph.NodeID) float64 {
				e := [2]graph.NodeID{u, v}
				if seen[e] {
					t.Fatalf("n=%d r=%d: weight(%d,%d) evaluated twice", n, r, u, v)
				}
				seen[e] = true
				calls++
				return base(u, v)
			}
			Build(d.G, w)
			if calls >= edges {
				t.Fatalf("n=%d r=%d: %d evaluations for %d directed edges", n, r, calls, edges)
			}
			if n == 100 && r == 10 && (calls != 635 || edges != 984) {
				t.Fatalf("n=100 r=10: %d evaluations for %d directed edges, want 635 for 984", calls, edges)
			}
		}
	}
}

// TestEmptyQuadrantIsEdgeNode is the property that lets Build seed every
// empty-quadrant node at once: quadrants are half-open 90° sectors, so a
// node with an empty quadrant has an angular gap of at least π/2 among its
// neighbors and EdgeNodes flags it. Algorithm 2's first pass therefore
// already seeds every node its second pass could. The cases cover paper
// deployments and lattices whose neighbors sit exactly on the quadrant
// boundaries (the axes), unperturbed and jittered by 1e-13 and by
// subnormal amounts.
func TestEmptyQuadrantIsEdgeNode(t *testing.T) {
	check := func(name string, g *graph.Graph) int {
		t.Helper()
		edge := EdgeNodes(g)
		empties := 0
		for u := 0; u < g.N(); u++ {
			for _, q := range geom.Quadrants {
				if len(g.NeighborsInQuadrant(u, q)) > 0 {
					continue
				}
				empties++
				if !edge[u] {
					t.Fatalf("%s: node %d at %v has empty %v but is not an edge node", name, u, g.Pos(u), q)
				}
			}
		}
		return empties
	}
	empties := 0
	for _, n := range []int{60, 100, 150, 200, 300, 400, 500, 600} {
		for seed := uint64(1); seed <= 10; seed++ {
			d, err := topology.Generate(topology.PaperConfig(n), seed)
			if err != nil {
				t.Fatal(err)
			}
			empties += check(fmt.Sprintf("paper n=%d seed=%d", n, seed), d.G)
		}
	}
	// Lattices centred on the origin, so the jitter also reaches
	// coordinates at ±0 where subnormal offsets are representable.
	src := rng.New(21)
	for _, k := range []int{2, 3, 5, 8} {
		for _, radius := range []float64{1, math.Sqrt2, 1.5, 2} {
			for _, jitter := range []float64{0, 1e-13, 5e-324, 1e-310} {
				pos := make([]geom.Point, 0, k*k)
				for y := 0; y < k; y++ {
					for x := 0; x < k; x++ {
						pos = append(pos, geom.Point{
							X: float64(x-k/2) + jitter*float64(src.Intn(3)-1),
							Y: float64(y-k/2) + jitter*float64(src.Intn(3)-1),
						})
					}
				}
				g := graph.FromUDG(pos, radius)
				if !g.DistinctPositions() {
					t.Fatalf("k=%d jitter=%g: coincident lattice points", k, jitter)
				}
				empties += check(fmt.Sprintf("lattice k=%d r=%g jitter=%g", k, radius, jitter), g)
			}
		}
	}
	if empties == 0 {
		t.Fatal("no empty quadrant examined")
	}
	t.Logf("%d empty quadrants, every one on an edge node", empties)
}

// TestNew checks the one weight choice: Eq. 9's hop weight for a nil or
// always-awake wake schedule, Eq. 11's mean CWT otherwise, and a typed
// error for coincident positions.
func TestNew(t *testing.T) {
	g := lineGraph(5)
	hop := BuildHop(g)
	for _, wake := range []dutycycle.Schedule{nil, dutycycle.AlwaysAwake{Nodes: 5}} {
		tab, err := New(g, wake)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tab, hop) {
			t.Fatalf("wake %v: table differs from the hop-weight build", wake)
		}
	}
	s := dutycycle.NewPeriodicPhase(4, []int{0, 3, 1, 2, 0})
	tab, err := New(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if want := Build(g, CWTWeight(s)); !reflect.DeepEqual(tab, want) || reflect.DeepEqual(tab, hop) {
		t.Fatal("duty-cycle table is not the CWT-weight build")
	}
	coincident := graph.FromUDG([]geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 0}}, 1)
	if _, err := New(coincident, nil); !errors.Is(err, ErrCoincidentPositions) {
		t.Fatalf("coincident positions: err = %v, want ErrCoincidentPositions", err)
	}
}

type namedGraph struct {
	name string
	g    *graph.Graph
}

// rowGraphs returns the graphs the quadrant-row tests run on: paper
// deployments, random deployments, and integer grids whose neighbors sit
// exactly on the axes (radius 1) or on axes and diagonals (radius 1.5),
// where QuadrantOf's half-open boundaries decide every edge.
func rowGraphs(t *testing.T) []namedGraph {
	t.Helper()
	var out []namedGraph
	for _, n := range []int{60, 150, 300} {
		for seed := uint64(1); seed <= 3; seed++ {
			d, err := topology.Generate(topology.PaperConfig(n), seed)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, namedGraph{fmt.Sprintf("paper n=%d seed=%d", n, seed), d.G})
		}
	}
	src := rng.New(27)
	for i := 0; i < 6; i++ {
		pos := make([]geom.Point, 40+src.Intn(90))
		for j := range pos {
			pos[j] = geom.Point{X: src.InRange(0, 40), Y: src.InRange(0, 40)}
		}
		out = append(out, namedGraph{fmt.Sprintf("random %d n=%d", i, len(pos)), graph.FromUDG(pos, 10)})
	}
	for _, k := range []int{1, 2, 5, 9} {
		for _, radius := range []float64{1, 1.5} {
			pos := make([]geom.Point, 0, k*k)
			for y := 0; y < k; y++ {
				for x := 0; x < k; x++ {
					pos = append(pos, geom.Point{X: float64(x - k/2), Y: float64(y - k/2)})
				}
			}
			out = append(out, namedGraph{fmt.Sprintf("grid k=%d r=%g", k, radius), graph.FromUDG(pos, radius)})
		}
	}
	return out
}

// TestQuadrantRows checks the classifier: a node's four rows partition
// N(u), each equals NeighborsInQuadrant(u, q), and v ∈ Q_q(u) exactly when
// u ∈ Q_{q+2}(v) — the symmetry that lets one QuadrantOf call per edge
// fill both rows.
func TestQuadrantRows(t *testing.T) {
	for _, c := range rowGraphs(t) {
		name, g := c.name, c.g
		tab := BuildHop(g)
		for u := 0; u < g.N(); u++ {
			union := bitset.New(g.N())
			total := 0
			for qi, q := range geom.Quadrants {
				row := tab.row(u, qi)
				if got, want := row.Members(), g.NeighborsInQuadrant(u, q); !slices.Equal(got, want) {
					t.Fatalf("%s: node %d %v row %v, NeighborsInQuadrant %v", name, u, q, got, want)
				}
				union.UnionWith(row)
				total += row.Len()
				for _, v := range row.Members() {
					if !tab.row(v, opposite(qi)).Has(u) {
						t.Fatalf("%s: %d ∈ Q%d(%d) but %d ∉ Q%d(%d)", name, v, qi+1, u, u, opposite(qi)+1, v)
					}
				}
			}
			if !union.Equal(g.Nbr(u)) || total != g.Degree(u) {
				t.Fatalf("%s: node %d rows cover %v (%d entries), N(u) = %v", name, u, union, total, g.Nbr(u))
			}
		}
	}
}

// TestBuildHopMatchesDijkstra pins the level BFS to the Dijkstra it
// replaces for unit weights: Build under HopWeight gives the same E bits
// and Theorem 3 update counts on paper and random deployments and on
// grids.
func TestBuildHopMatchesDijkstra(t *testing.T) {
	for _, c := range rowGraphs(t) {
		name, g := c.name, c.g
		got, want := BuildHop(g), Build(g, HopWeight)
		if !slices.Equal(got.Updates, want.Updates) {
			t.Fatalf("%s: level BFS updates %v, Dijkstra %v", name, got.Updates, want.Updates)
		}
		for u := range want.E {
			for qi, e := range want.E[u] {
				if math.Float64bits(got.E[u][qi]) != math.Float64bits(e) {
					t.Fatalf("%s: E[%d][%d] = %v by level BFS, %v by Dijkstra", name, u, qi, got.E[u][qi], e)
				}
			}
		}
	}
}

// refScore is Eq. 10 the long way, the per-neighbor loop Score replaced:
// the largest E_k(u) over the quadrants of u's uncovered neighbors, -1
// when there are none.
func refScore(g *graph.Graph, tab *Table, u graph.NodeID, covered bitset.Set) float64 {
	best := -1.0
	for _, v := range g.Adj(u) {
		if covered.Has(v) {
			continue
		}
		if e := tab.E[u][geom.QuadrantOf(g.Pos(u), g.Pos(v)).Index()]; e > best {
			best = e
		}
	}
	return best
}

// TestScoreMatchesNeighborLoop checks Score's row tests against the
// per-neighbor loop for every node under random coverage, empty to full,
// on hop and CWT tables.
func TestScoreMatchesNeighborLoop(t *testing.T) {
	src := rng.New(41)
	checked := 0
	for _, c := range rowGraphs(t) {
		name, g := c.name, c.g
		n := g.N()
		tabs := []*Table{BuildHop(g), Build(g, CWTWeight(dutycycle.NewUniform(n, 10, src.Uint64(), 0)))}
		for _, p := range []float64{0, 0.1, 0.5, 0.9, 1} {
			covered := bitset.New(n)
			for v := 0; v < n; v++ {
				if src.Float64() < p {
					covered.Add(v)
				}
			}
			for _, tab := range tabs {
				for u := 0; u < n; u++ {
					if got, want := tab.Score(u, covered), refScore(g, tab, u, covered); got != want {
						t.Fatalf("%s p=%g: Score(%d) = %v, neighbor loop %v", name, p, u, got, want)
					}
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no score checked")
	}
}
