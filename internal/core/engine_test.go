package core

import (
	"testing"

	"mlbs/internal/topology"
)

// TestEngineResultsSurviveReuse guards the aliasing hazard of engine
// reuse: the incumbent buffer a Result's advances were materialized into
// must be detached on reset, not truncated and overwritten.
func TestEngineResultsSurviveReuse(t *testing.T) {
	dep1, err := topology.Generate(topology.PaperConfig(80), 11)
	if err != nil {
		t.Fatal(err)
	}
	dep2, err := topology.Generate(topology.PaperConfig(80), 12)
	if err != nil {
		t.Fatal(err)
	}
	in1, in2 := Sync(dep1.G, dep1.Source), Sync(dep2.G, dep2.Source)

	en := NewGOPT(0).NewEngine()
	res1, err := en.Schedule(in1)
	if err != nil {
		t.Fatal(err)
	}
	pa1 := res1.PA
	if _, err := en.Schedule(in2); err != nil {
		t.Fatal(err)
	}
	if res1.PA != pa1 {
		t.Fatalf("first result mutated by reuse: PA %d → %d", pa1, res1.PA)
	}
	if err := res1.Schedule.Validate(in1); err != nil {
		t.Errorf("first schedule corrupted by engine reuse: %v", err)
	}
}

// TestEngineSteadyStateAllocs bounds a warm engine's per-call allocations
// end to end (incumbent rollout + search + result materialization). The
// point is not zero — the incumbent policy and the output schedule
// allocate — but that the search arenas themselves stop growing.
func TestEngineSteadyStateAllocs(t *testing.T) {
	dep, err := topology.Generate(topology.PaperConfig(100), 7)
	if err != nil {
		t.Fatal(err)
	}
	in := Sync(dep.G, dep.Source)
	en := NewGOPT(0).NewEngine()
	if _, err := en.Schedule(in); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := en.Schedule(in); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 500 {
		t.Errorf("warm engine allocated %.0f objects per Schedule; want ≤ 500", allocs)
	}
}
