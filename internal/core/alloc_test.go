package core

import (
	"testing"

	"mlbs/internal/topology"
)

// TestDFSSteadyStateAllocs pins the refactor's core property: once the
// engine's frame arena, scratches, and pools are warm, re-running the full
// branch-and-bound from the root allocates only what the (reset) memo
// table itself needs — a handful of slab/slot arrays — no matter how many
// hundreds of states it expands. The pre-refactor engine allocated several
// objects per expanded state (string keys, coverage unions, member lists,
// class slices), so this ceiling would have been in the thousands.
func TestDFSSteadyStateAllocs(t *testing.T) {
	dep, err := topology.Generate(topology.PaperConfig(100), 7)
	if err != nil {
		t.Fatal(err)
	}
	in := Sync(dep.G, dep.Source)
	inc, err := NewEModel().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}

	cfg := SearchConfig{Moves: GreedyMoves, Budget: DefaultBudget, MaxSets: DefaultMaxSets}
	e := newEngine(in, cfg)
	e.bestEnd = inc.Schedule.End()
	e.best = append([]Advance(nil), inc.Schedule.Advances...)
	w0 := in.initialCoverage()

	run := func() {
		e.memo = newMemoTable(memoSeed)
		e.budget = cfg.Budget
		e.stack = e.stack[:0]
		e.dfs(0, w0, in.Start, e.bestEnd)
	}
	run() // warm-up: builds frames, grows scratches, fills pools

	stats := e.stats
	allocs := testing.AllocsPerRun(5, run)
	if allocs > 64 {
		t.Errorf("warm dfs allocated %.0f objects per full search (expanded %d states); want ≤ 64",
			allocs, e.stats.Expanded-stats.Expanded)
	}
	if e.stats.Expanded == 0 {
		t.Fatal("dfs expanded no states; the allocation ceiling proved nothing")
	}
}

// TestOPTSteadyStateAllocs repeats the ceiling for the maximal-set move
// generator, whose Bron–Kerbosch enumeration draws all working sets from
// the shared pool.
func TestOPTSteadyStateAllocs(t *testing.T) {
	dep, err := topology.Generate(topology.PaperConfig(100), 7)
	if err != nil {
		t.Fatal(err)
	}
	in := Sync(dep.G, dep.Source)
	inc, err := NewGOPT(0).Schedule(in)
	if err != nil {
		t.Fatal(err)
	}

	cfg := SearchConfig{Moves: MaximalMoves, Budget: DefaultBudget, MaxSets: DefaultMaxSets}
	e := newEngine(in, cfg)
	e.bestEnd = inc.Schedule.End()
	e.best = append([]Advance(nil), inc.Schedule.Advances...)
	w0 := in.initialCoverage()

	run := func() {
		e.memo = newMemoTable(memoSeed)
		e.budget = cfg.Budget
		e.stack = e.stack[:0]
		e.dfs(0, w0, in.Start, e.bestEnd)
	}
	run()

	allocs := testing.AllocsPerRun(5, run)
	if allocs > 64 {
		t.Errorf("warm OPT dfs allocated %.0f objects per full search; want ≤ 64", allocs)
	}
}

// TestPolicyScheduleAllocs bounds the practical scheduler end to end: one
// E-model table build plus the rollout. Output materialization (the
// schedule's own sender/receiver lists) is the dominant remainder; the
// bound still sits far below the pre-refactor cost of the same call.
func TestPolicyScheduleAllocs(t *testing.T) {
	dep, err := topology.Generate(topology.PaperConfig(100), 7)
	if err != nil {
		t.Fatal(err)
	}
	in := Sync(dep.G, dep.Source)
	sched := NewEModel()
	if _, err := sched.Schedule(in); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := sched.Schedule(in); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 300 {
		t.Errorf("E-model Schedule allocated %.0f objects per call; want ≤ 300", allocs)
	}
}
