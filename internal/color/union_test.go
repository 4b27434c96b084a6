package color

import (
	"fmt"
	"slices"
	"testing"

	"mlbs/internal/bitset"
	"mlbs/internal/graph"
	"mlbs/internal/interference"
	"mlbs/internal/rng"
	"mlbs/internal/topology"
)

// memberLoopOracle is the protocol-graph oracle under another type, so
// GreedyPartitionOracle's *interference.GraphOracle check misses it and
// the partition takes the generic member loop (CanJoin per member) with
// sort.Stable — the reference the union fast path must reproduce.
type memberLoopOracle struct{ *interference.GraphOracle }

// unionScenario is one paper deployment with a coverage state and a
// candidate list in a given arrival order.
type unionScenario struct {
	name  string
	g     *graph.Graph
	w     bitset.Set
	cands []graph.NodeID
}

// unionScenarios draws paper deployments (n ∈ {30, 150, 300}) with random
// coverage — independent coin flips at several densities, and a BFS ball
// around the source as a mid-broadcast state — and lists each state's
// candidates in ascending order (the counting sort), shuffled (the
// sort.Stable fallback), and as random duplicate-free subsets in both
// orders.
func unionScenarios(t testing.TB) []unionScenario {
	t.Helper()
	var out []unionScenario
	for _, n := range []int{30, 150, 300} {
		for seed := uint64(1); seed <= 4; seed++ {
			dep, err := topology.Generate(topology.PaperConfig(n), seed)
			if err != nil {
				t.Fatalf("n=%d seed %d: %v", n, seed, err)
			}
			g := dep.G
			r := rng.New(seed*1000 + uint64(n))
			var ws []bitset.Set
			for _, p := range []float64{0.1, 0.5, 0.9} {
				w := bitset.New(n)
				w.Add(dep.Source)
				for v := 0; v < n; v++ {
					if r.Float64() < p {
						w.Add(v)
					}
				}
				ws = append(ws, w)
			}
			ball := bitset.New(n)
			for v, d := range g.BFS(dep.Source) {
				if d >= 0 && d <= dep.SourceEcc/2 {
					ball.Add(v)
				}
			}
			ws = append(ws, ball)
			for wi, w := range ws {
				asc := Candidates(g, w)
				if len(asc) == 0 {
					continue
				}
				shuffled := slices.Clone(asc)
				r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
				var subset []graph.NodeID
				for _, u := range asc {
					if r.Intn(2) == 0 {
						subset = append(subset, u)
					}
				}
				subShuffled := slices.Clone(subset)
				r.Shuffle(len(subShuffled), func(i, j int) { subShuffled[i], subShuffled[j] = subShuffled[j], subShuffled[i] })
				tag := fmt.Sprintf("n%d/seed%d/w%d", n, seed, wi)
				out = append(out,
					unionScenario{tag + "/ascending", g, w, asc},
					unionScenario{tag + "/shuffled", g, w, shuffled},
				)
				if len(subset) > 0 {
					out = append(out,
						unionScenario{tag + "/subset", g, w, subset},
						unionScenario{tag + "/subset-shuffled", g, w, subShuffled},
					)
				}
			}
		}
	}
	return out
}

// The union fast path (per-class receiver bitsets, counting sort) must
// give exactly the member loop's classes, in the same order, with the same
// per-class advances.
func TestGreedyPartitionUnionMatchesMemberLoop(t *testing.T) {
	var fast, slow Scratch
	var gor interference.GraphOracle
	for _, sc := range unionScenarios(t) {
		gor.Reset(sc.g)
		got := fast.GreedyPartitionOracle(sc.g, sc.w, sc.cands, &gor)
		want := slow.GreedyPartitionOracle(sc.g, sc.w, sc.cands, memberLoopOracle{&gor})
		if len(got) != len(want) {
			t.Fatalf("%s: %d classes, want %d", sc.name, len(got), len(want))
		}
		for i := range want {
			if !equalClass(got[i], want[i]) {
				t.Fatalf("%s: class %d = %v, want %v", sc.name, i, got[i], want[i])
			}
			if !fast.ClassCovered(i).Equal(slow.ClassCovered(i)) {
				t.Fatalf("%s: class %d advance %v, want %v", sc.name, i, fast.ClassCovered(i), slow.ClassCovered(i))
			}
		}
	}
}

// A candidate listed twice joins its own class under the member loop (a
// node never conflicts with itself); the union test would see the first
// copy's receivers, so duplicate input must leave the fast path.
func TestGreedyPartitionDuplicateCandidates(t *testing.T) {
	var fast, slow Scratch
	var gor interference.GraphOracle
	for _, sc := range unionScenarios(t)[:8] {
		dup := append(slices.Clone(sc.cands), sc.cands[0], sc.cands[len(sc.cands)/2])
		gor.Reset(sc.g)
		got := fast.GreedyPartitionOracle(sc.g, sc.w, dup, &gor)
		want := slow.GreedyPartitionOracle(sc.g, sc.w, dup, memberLoopOracle{&gor})
		if len(got) != len(want) {
			t.Fatalf("%s: %d classes, want %d", sc.name, len(got), len(want))
		}
		for i := range want {
			if !equalClass(got[i], want[i]) {
				t.Fatalf("%s: class %d = %v, want %v", sc.name, i, got[i], want[i])
			}
		}
	}
}

// The premise of the fast path: for candidate u and a set S of candidates,
// N(u) ∩ ⋃_{v∈S} N(v) \ W = ⋃_{v∈S} (N(u) ∩ N(v) \ W), so u conflicts
// with no member of S iff N(u) misses S's receiver union.
func TestUnionIdentity(t *testing.T) {
	for _, sc := range unionScenarios(t) {
		r := rng.New(uint64(len(sc.cands)))
		n := sc.g.N()
		union, lhs, rhs, pair := bitset.New(n), bitset.New(n), bitset.New(n), bitset.New(n)
		for trial := 0; trial < 8; trial++ {
			union.Clear()
			rhs.Clear()
			u := sc.cands[r.Intn(len(sc.cands))]
			for _, v := range sc.cands {
				if v == u || r.Intn(3) != 0 {
					continue
				}
				union.UnionDifference(sc.g.Nbr(v), sc.w)
				bitset.IntersectInto(pair, sc.g.Nbr(u), sc.g.Nbr(v))
				pair.DifferenceWith(sc.w)
				rhs.UnionWith(pair)
			}
			bitset.IntersectInto(lhs, sc.g.Nbr(u), union)
			if !lhs.Equal(rhs) {
				t.Fatalf("%s: u=%d: N(u) ∩ ⋃N(v) \\ W = %v, ⋃(N(u) ∩ N(v) \\ W) = %v", sc.name, u, lhs, rhs)
			}
		}
	}
}

// BenchmarkGreedyPartition300 is Algorithm 1 on one mid-broadcast state of
// a 300-node paper deployment (coverage: every node within half the
// source's eccentricity) under the protocol-graph oracle, the way the
// search's move generator calls it.
func BenchmarkGreedyPartition300(b *testing.B) {
	dep, err := topology.Generate(topology.PaperConfig(300), 1)
	if err != nil {
		b.Fatal(err)
	}
	g := dep.G
	w := bitset.New(g.N())
	for v, d := range g.BFS(dep.Source) {
		if d >= 0 && d <= dep.SourceEcc/2 {
			w.Add(v)
		}
	}
	var sc Scratch
	var gor interference.GraphOracle
	gor.Reset(g)
	cands := sc.Candidates(g, w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.GreedyPartitionOracle(g, w, cands, &gor)
	}
}
