package color

import (
	"testing"

	"mlbs/internal/bitset"
	"mlbs/internal/dutycycle"
)

// The scratch methods must reproduce the package-level functions exactly:
// same classes, same order, same truncation point. Equivalence over random
// scenarios is the contract that lets the search engine reuse one Scratch
// per frame.
func TestScratchMatchesPackageFunctions(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		g, w := randomScenario(seed)
		cands := Candidates(g, w)
		var sc Scratch

		if got := sc.Candidates(g, w); !equalIDs(got, cands) {
			t.Fatalf("seed %d: scratch candidates %v, want %v", seed, got, cands)
		}

		want := GreedyPartition(g, w, cands)
		got := sc.GreedyPartition(g, w, cands)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d classes, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if !equalClass(got[i], want[i]) {
				t.Fatalf("seed %d class %d: %v, want %v", seed, i, got[i], want[i])
			}
		}

		for _, limit := range []int{0, 1, 3} {
			wantSets, wantTrunc := MaximalSets(g, w, cands, limit)
			gotSets, gotTrunc := sc.MaximalSets(g, w, cands, limit)
			if gotTrunc != wantTrunc || len(gotSets) != len(wantSets) {
				t.Fatalf("seed %d limit %d: (%d sets, trunc=%v), want (%d, %v)",
					seed, limit, len(gotSets), gotTrunc, len(wantSets), wantTrunc)
			}
			for i := range wantSets {
				if !equalClass(gotSets[i], wantSets[i]) {
					t.Fatalf("seed %d limit %d set %d: %v, want %v",
						seed, limit, i, gotSets[i], wantSets[i])
				}
			}
		}
	}
}

// Reusing one Scratch across many states must not allocate once warm —
// the property the whole refactor exists for.
func TestScratchSteadyStateAllocs(t *testing.T) {
	g, w := randomScenario(77)
	var sc Scratch
	cands := sc.Candidates(g, w)
	sc.GreedyPartition(g, w, cands)
	sc.MaximalSets(g, w, cands, 64)

	if allocs := testing.AllocsPerRun(20, func() {
		c := sc.Candidates(g, w)
		sc.GreedyPartition(g, w, c)
	}); allocs > 0 {
		t.Errorf("warm GreedyPartition allocated %.1f objects, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		c := sc.Candidates(g, w)
		sc.MaximalSets(g, w, c, 64)
	}); allocs > 0 {
		t.Errorf("warm MaximalSets allocated %.1f objects, want 0", allocs)
	}
}

// Every class of a partition or maximal-set call leaves its advance in the
// Scratch.
func TestScratchCoveredLen(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		g, w := randomScenario(seed)
		var sc Scratch
		cands := Candidates(g, w)
		check := func(what string, classes []Class) {
			for i, cls := range classes {
				want := cls.Covered(g, w)
				if got := sc.ClassCovered(i); !got.Equal(want) {
					t.Fatalf("seed %d %s: ClassCovered(%d) = %v, want %v", seed, what, i, got, want)
				}
			}
		}
		check("greedy", sc.GreedyPartition(g, w, cands))
		sets, _ := sc.MaximalSets(g, w, cands, 0)
		check("maximal", sets)
	}
}

func TestCoveredInto(t *testing.T) {
	g, w := randomScenario(9)
	dst := bitset.New(g.N())
	for _, cls := range GreedySync(g, w) {
		if got, want := cls.CoveredInto(g, w, dst), cls.Covered(g, w); !got.Equal(want) {
			t.Fatalf("CoveredInto(%v) = %v, want %v", cls, got, want)
		}
	}
}

func TestFilterAwake(t *testing.T) {
	g, w := randomScenario(11)
	s := dutycycle.NewStaggered(g.N(), 4, 3)
	var sc Scratch
	cands := sc.Candidates(g, w)
	got := sc.FilterAwake(cands, s, 6)
	want := AwakeCandidates(g, w, s, 6)
	if !equalIDs(got, want) {
		t.Fatalf("FilterAwake = %v, want %v", got, want)
	}
}

func equalIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func BenchmarkScratchGreedyPartition(b *testing.B) {
	g, w := randomScenario(12345)
	var sc Scratch
	cands := sc.Candidates(g, w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sc.GreedyPartition(g, w, cands)
	}
}

func BenchmarkScratchMaximalSets(b *testing.B) {
	g, w := randomScenario(999)
	var sc Scratch
	cands := sc.Candidates(g, w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = sc.MaximalSets(g, w, cands, 0)
	}
}
