package protocol

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"mlbs/internal/dutycycle"
	"mlbs/internal/emodel"
	"mlbs/internal/geom"
	"mlbs/internal/graph"
	"mlbs/internal/paperfig"
	"mlbs/internal/topology"
)

func TestDiscoverCounts(t *testing.T) {
	d, err := topology.Generate(topology.PaperConfig(100), 3)
	if err != nil {
		t.Fatal(err)
	}
	res := Discover(d.G, 5)
	if res.Beacons != 100 {
		t.Fatalf("beacons = %d, want 100", res.Beacons)
	}
	if res.Replies != 2*d.G.M() {
		t.Fatalf("replies = %d, want %d (one per directed edge)", res.Replies, 2*d.G.M())
	}
}

func TestDiscoverTablesComplete(t *testing.T) {
	g, _ := paperfig.Figure1()
	res := Discover(g, 7)
	for u := 0; u < g.N(); u++ {
		if len(res.Tables[u]) != g.Degree(u) {
			t.Fatalf("node %d learned %d neighbors, has %d", u, len(res.Tables[u]), g.Degree(u))
		}
		for i, rec := range res.Tables[u] {
			if !g.HasEdge(u, rec.ID) {
				t.Fatalf("node %d learned phantom neighbor %d", u, rec.ID)
			}
			if rec.Pos != g.Pos(rec.ID) {
				t.Fatalf("node %d has wrong position for %d", u, rec.ID)
			}
			if i > 0 && res.Tables[u][i-1].ID >= rec.ID {
				t.Fatalf("node %d table unsorted", u)
			}
		}
	}
}

func TestDiscoverSeedsConsistent(t *testing.T) {
	// Two different observers of the same node must learn the same seed —
	// that is what makes wake forecasting possible.
	g, _ := paperfig.Figure1()
	res := Discover(g, 11)
	seedSeen := map[graph.NodeID]uint64{}
	for u := 0; u < g.N(); u++ {
		for _, rec := range res.Tables[u] {
			if prev, ok := seedSeen[rec.ID]; ok && prev != rec.WakeSeed {
				t.Fatalf("node %d advertised different seeds to different neighbors", rec.ID)
			}
			seedSeen[rec.ID] = rec.WakeSeed
		}
	}
}

// assertSameE fails unless the protocol's literal two-pass table equals
// the centralized one-pass table emodel.New builds for the same wake
// schedule (nil for the synchronous system) bit for bit, Theorem 3's
// update counts included.
func assertSameE(t *testing.T, name string, g *graph.Graph, wake dutycycle.Schedule) {
	t.Helper()
	want, err := emodel.New(g, wake)
	if err != nil {
		t.Fatal(err)
	}
	w := emodel.HopWeight
	if wake != nil {
		w = emodel.CWTWeight(wake)
	}
	got, err := BuildE(g, w)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		for qi := range geom.Quadrants {
			if math.Float64bits(got.Table.E[u][qi]) != math.Float64bits(want.E[u][qi]) {
				t.Fatalf("%s node %d q%d: protocol %v, centralized %v",
					name, u, qi, got.Table.E[u][qi], want.E[u][qi])
			}
		}
		if got.Table.Updates[u] != want.Updates[u] {
			t.Fatalf("%s node %d: protocol %d updates, centralized %d",
				name, u, got.Table.Updates[u], want.Updates[u])
		}
	}
}

func TestBuildEMatchesCentralizedSync(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		d, err := topology.Generate(topology.PaperConfig(120), seed)
		if err != nil {
			t.Fatal(err)
		}
		assertSameE(t, fmt.Sprintf("n=120 seed %d", seed), d.G, nil)
	}
	d, err := topology.Generate(topology.PaperConfig(300), 1)
	if err != nil {
		t.Fatal(err)
	}
	assertSameE(t, "n=300", d.G, nil)
}

func TestBuildEMatchesCentralizedAsync(t *testing.T) {
	d, err := topology.Generate(topology.PaperConfig(80), 9)
	if err != nil {
		t.Fatal(err)
	}
	assertSameE(t, "r=10", d.G, dutycycle.NewUniform(d.G.N(), 10, 4, 8))
	for _, r := range []int{2, 50} {
		for _, n := range []int{80, 150} {
			d, err := topology.Generate(topology.PaperConfig(n), uint64(r))
			if err != nil {
				t.Fatal(err)
			}
			wake := dutycycle.NewUniform(n, r, uint64(n)^0xA5, 0)
			assertSameE(t, fmt.Sprintf("n=%d r=%d", n, r), d.G, wake)
		}
	}
}

// Theorem 3, literally: every node announces each quadrant entry exactly
// once — 4 messages per node, 4n in total.
func TestTheorem3MessageCount(t *testing.T) {
	d, err := topology.Generate(topology.PaperConfig(200), 13)
	if err != nil {
		t.Fatal(err)
	}
	res, err := BuildE(d.G, emodel.HopWeight)
	if err != nil {
		t.Fatal(err)
	}
	n := d.G.N()
	if res.Exchanges != 4*n {
		t.Fatalf("exchanges = %d, want exactly 4n = %d", res.Exchanges, 4*n)
	}
	for u, c := range res.PerNode {
		if c != 4 {
			t.Fatalf("node %d announced %d times, want 4", u, c)
		}
	}
}

func TestBuildEFigure1Values(t *testing.T) {
	g, _ := paperfig.Figure1()
	res, err := BuildE(g, emodel.HopWeight)
	if err != nil {
		t.Fatal(err)
	}
	for node, want := range paperfig.Figure1E2Want() {
		if got := res.Table.Value(node, geom.Q2); got != want {
			t.Fatalf("E2(paper %d) = %v, want %v", node-1, got, want)
		}
	}
}

func TestBuildERejectsDegenerate(t *testing.T) {
	g := graph.NewBuilder(3, nil).AddEdge(0, 1).AddEdge(1, 2).Build()
	if _, err := BuildE(g, emodel.HopWeight); err == nil {
		t.Fatal("degenerate geometry accepted")
	}
}

// Property: protocol and centralized construction agree on random
// deployments.
func TestQuickProtocolMatchesCentralized(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := topology.Config{N: 40, AreaSide: 30, Radius: 10, MaxRetries: 50}
		d, err := topology.Generate(cfg, seed)
		if err != nil {
			return true
		}
		want := emodel.BuildHop(d.G)
		got, err := BuildE(d.G, emodel.HopWeight)
		if err != nil {
			return false
		}
		for u := 0; u < d.G.N(); u++ {
			for qi := range geom.Quadrants {
				if got.Table.E[u][qi] != want.E[u][qi] {
					return false
				}
			}
		}
		return got.Exchanges == 4*d.G.N()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuildE300(b *testing.B) {
	d, err := topology.Generate(topology.PaperConfig(300), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildE(d.G, emodel.HopWeight); err != nil {
			b.Fatal(err)
		}
	}
}
