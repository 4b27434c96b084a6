package core

import (
	"slices"
	"testing"

	"mlbs/internal/bitset"
	"mlbs/internal/color"
	"mlbs/internal/dutycycle"
	"mlbs/internal/geom"
	"mlbs/internal/graph"
	"mlbs/internal/rng"
	"mlbs/internal/topology"
)

// refMaxHop is the hop bound taken the long way: the largest
// graph.MultiSourceBFS distance over uncovered nodes, inf when one is
// unreachable.
func refMaxHop(g *graph.Graph, w bitset.Set) int {
	dist, _ := g.MultiSourceBFS(w, nil, nil)
	max := 0
	for v, d := range dist {
		if w.Has(v) {
			continue
		}
		if d < 0 {
			return inf
		}
		if d > max {
			max = d
		}
	}
	return max
}

// randomTree joins node i to a uniformly drawn earlier node, so every hop
// depth from 1 to n−1 is possible.
func randomTree(n int, r *rng.Source) *graph.Graph {
	b := graph.NewBuilder(n, nil)
	for i := 1; i < n; i++ {
		b.AddEdge(i, r.Intn(i))
	}
	return b.Build()
}

// randomCover returns a coverage set holding src plus each other node with
// probability p.
func randomCover(n, src int, p float64, r *rng.Source) bitset.Set {
	w := bitset.New(n)
	w.Add(src)
	for v := 0; v < n; v++ {
		if r.Float64() < p {
			w.Add(v)
		}
	}
	return w
}

// TestMaxHopMatchesBFS cross-checks the bit-parallel hop bound against the
// queue BFS it replaced, on one engine rebound across sizes that straddle
// word boundaries (partial and exact last words), over random trees, paper
// deployments and disconnected unit-disk graphs, with random, empty, single
// and full coverage. Both level directions are exercised: a source-only
// state starts top-down (a frontier of one) and turns bottom-up once the
// frontier outgrows the nodes left, and a near-full state (all but up to
// three nodes covered) is bottom-up from its first level.
func TestMaxHopMatchesBFS(t *testing.T) {
	r := rng.New(17)
	var e *engine
	check := func(name string, g *graph.Graph, w bitset.Set) {
		t.Helper()
		in := Sync(g, 0)
		if e == nil {
			e = newEngine(in, SearchConfig{})
		} else {
			e.reset(in, SearchConfig{})
		}
		if got, want := e.maxHop(w), refMaxHop(g, w); got != want {
			t.Errorf("%s n=%d |w|=%d: maxHop=%d, BFS=%d", name, g.N(), w.Len(), got, want)
		}
	}
	covers := func(name string, g *graph.Graph, src int) {
		t.Helper()
		n := g.N()
		check(name+"/source", g, bitset.FromMembers(n, src))
		check(name+"/empty", g, bitset.New(n))
		full := bitset.New(n)
		for v := 0; v < n; v++ {
			full.Add(v)
		}
		check(name+"/full", g, full)
		if got := e.maxHop(full); got != 0 {
			t.Errorf("%s n=%d: full coverage maxHop=%d, want 0", name, n, got)
		}
		for i := 0; i < 4; i++ {
			near := full.Clone()
			for j := 0; j < 1+i%3; j++ {
				if v := r.Intn(n); v != src {
					near.Remove(v)
				}
			}
			check(name+"/near-full", g, near)
		}
		for _, p := range []float64{0.02, 0.1, 0.3, 0.6, 0.9} {
			for i := 0; i < 4; i++ {
				check(name+"/random", g, randomCover(n, src, p, r))
			}
		}
	}

	for _, n := range []int{1, 2, 63, 64, 65, 128, 150, 300} {
		for trial := 0; trial < 3; trial++ {
			g := randomTree(n, r)
			covers("tree", g, r.Intn(n))
		}
		if n >= 2 {
			// A tree over all but the last node, which stays isolated:
			// unreachable from any coverage that misses it.
			b := graph.NewBuilder(n, nil)
			for i := 1; i < n-1; i++ {
				b.AddEdge(i, r.Intn(i))
			}
			g := b.Build()
			check("isolated", g, randomCover(n, 0, 0.3, r))
			if w := bitset.FromMembers(n, 0); refMaxHop(g, w) != inf || e.maxHop(w) != inf {
				t.Errorf("isolated n=%d: want inf from the tree side", n)
			}
			check("isolated/covered", g, bitset.FromMembers(n, 0, n-1))
		}
		if n >= 63 {
			for seed := uint64(1); seed <= 3; seed++ {
				dep, err := topology.Generate(topology.PaperConfig(n), seed)
				if err != nil {
					t.Fatal(err)
				}
				covers("paper", dep.G, dep.Source)
			}
			// A sparse unit-disk graph: almost surely several components.
			pos := make([]geom.Point, n)
			for i := range pos {
				pos[i] = geom.Point{X: r.InRange(0, 200), Y: r.InRange(0, 200)}
			}
			g := graph.FromUDG(pos, 10)
			if g.Connected() {
				t.Fatalf("n=%d: sparse unit-disk graph is connected; pick a sparser area", n)
			}
			covers("disconnected", g, 0)
		}
	}
}

// TestFiniteHopMeansSlotNow pins the fact dfs's round-based order rests
// on: with a wake period of 1, a finite hop bound on a non-full coverage
// set means the next useful slot is t itself and its candidates are all
// of Candidates(w), so the candidate scan can wait until after the bound,
// the memo probe and the budget check. It covers paper deployments and
// random trees (connected, so every non-full coverage has a finite
// bound), random coverage sets, several start slots and every period-1
// schedule kind.
func TestFiniteHopMeansSlotNow(t *testing.T) {
	r := rng.New(29)
	var (
		e  *engine
		sc color.Scratch
	)
	checked := 0
	check := func(name string, g *graph.Graph, src int) {
		t.Helper()
		n := g.N()
		zeros := make([]int, n)
		lists := make([][]int, n)
		for u := range lists {
			lists[u] = []int{0}
		}
		wakes := []dutycycle.Schedule{
			dutycycle.AlwaysAwake{Nodes: n},
			dutycycle.NewFixed(1, 1, lists),
			dutycycle.NewUniform(n, 1, r.Uint64(), 1),
			dutycycle.NewPeriodicPhase(1, zeros),
		}
		in := Sync(g, src)
		if e == nil {
			e = newEngine(in, SearchConfig{})
		} else {
			e.reset(in, SearchConfig{})
		}
		for _, p := range []float64{0, 0.05, 0.3, 0.6, 0.95} {
			for i := 0; i < 3; i++ {
				w := randomCover(n, src, p, r)
				if w.Len() == n {
					continue
				}
				hop := e.maxHop(w)
				if hop < 1 || hop >= inf {
					t.Fatalf("%s n=%d |w|=%d: connected graph, non-full coverage, maxHop=%d", name, n, w.Len(), hop)
				}
				want := color.Candidates(g, w)
				for _, wake := range wakes {
					if wake.Period() != 1 {
						t.Fatalf("%T: period %d, want 1", wake, wake.Period())
					}
					for _, t0 := range []int{0, 1, 7, 1000} {
						slot, cands, ok := nextUsefulSlot(g, wake, w, t0, &sc)
						if !ok || slot != t0 || !slices.Equal(cands, want) {
							t.Fatalf("%s n=%d %T t=%d: nextUsefulSlot = (%d, %v, %v), want (%d, %v, true)",
								name, n, wake, t0, slot, cands, ok, t0, want)
						}
						checked++
					}
				}
			}
		}
	}
	for _, n := range []int{63, 100, 150, 300} {
		for seed := uint64(1); seed <= 3; seed++ {
			dep, err := topology.Generate(topology.PaperConfig(n), seed)
			if err != nil {
				t.Fatal(err)
			}
			check("paper", dep.G, dep.Source)
		}
		check("tree", randomTree(n, r), r.Intn(n))
	}
	if checked == 0 {
		t.Fatal("no state checked")
	}
}

// BenchmarkMaxHopSourceOnly times the hop bound alone on an n=300 paper
// deployment covering only the source — the root of every sync search,
// whose first levels the bound builds top-down.
func BenchmarkMaxHopSourceOnly(b *testing.B) {
	dep, err := topology.Generate(topology.PaperConfig(300), 1)
	if err != nil {
		b.Fatal(err)
	}
	in := Sync(dep.G, dep.Source)
	w := in.initialCoverage()
	e := newEngine(in, SearchConfig{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.maxHop(w)
	}
}

// BenchmarkMaxHop times the hop bound alone on an n=300 paper deployment
// whose coverage is the state after the first few E-model advances — a
// typical early-search state of a cold sync plan.
func BenchmarkMaxHop(b *testing.B) {
	dep, err := topology.Generate(topology.PaperConfig(300), 1)
	if err != nil {
		b.Fatal(err)
	}
	in := Sync(dep.G, dep.Source)
	res, err := NewEModel().Schedule(in)
	if err != nil {
		b.Fatal(err)
	}
	w := in.initialCoverage()
	for _, a := range res.Schedule.Advances[:3] {
		for _, v := range a.Covered {
			w.Add(v)
		}
	}
	e := newEngine(in, SearchConfig{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.maxHop(w)
	}
}
