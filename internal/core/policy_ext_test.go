package core_test

import (
	"testing"

	"mlbs/internal/core"
	"mlbs/internal/dutycycle"
	"mlbs/internal/sim"
	"mlbs/internal/topology"
)

// maxCoverage and firstColor are the selection ablation schedulers of
// DESIGN.md §7: utilization-greedy and plain first-color selection.
func maxCoverage() core.Scheduler {
	return core.NewPolicy("max-coverage", core.MaxCoverageRule{})
}
func firstColor() core.Scheduler { return core.NewPolicy("first-color", core.FirstColorRule{}) }

// TestAblationPoliciesFlow: every ablation scheduler yields a valid
// schedule that the physics replays to completion.
func TestAblationPoliciesFlow(t *testing.T) {
	dep, err := topology.Generate(topology.PaperConfig(100), 42)
	if err != nil {
		t.Fatal(err)
	}
	in := core.Sync(dep.G, dep.Source)
	for _, s := range []core.Scheduler{maxCoverage(), firstColor()} {
		res, err := s.Schedule(in)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := res.Schedule.Validate(in); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		rep, err := sim.Replay(in, res.Schedule)
		if err != nil || !rep.Completed {
			t.Fatalf("%s replay: %v completed=%v", s.Name(), err, rep != nil && rep.Completed)
		}
	}
}

func TestEnergyAwareStaggeredReplay(t *testing.T) {
	dep, err := topology.Generate(topology.PaperConfig(80), 21)
	if err != nil {
		t.Fatal(err)
	}
	wake := dutycycle.NewStaggered(dep.G.N(), 10, 5)
	in := core.Async(dep.G, dep.Source, wake, 0)
	res, err := core.NewEnergyAware().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(in); err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Replay(in, res.Schedule)
	if err != nil || !rep.Completed {
		t.Fatalf("energy-aware replay: %v", err)
	}
}

func TestBudgetedSearches(t *testing.T) {
	cfg := topology.PaperConfig(60)
	if cfg.N != 60 {
		t.Fatal("PaperConfig")
	}
	dep, err := topology.Generate(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	in := core.Sync(dep.G, dep.Source)
	if _, err := core.NewOPT(1000, 32).Schedule(in); err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewGOPT(1000).Schedule(in); err != nil {
		t.Fatal(err)
	}
}

func benchScheduler(b *testing.B, in core.Instance, s core.Scheduler) {
	b.Helper()
	var res *core.Result
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err = s.Schedule(in); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Schedule.Latency()), "latency")
}

// instance300 is the n=300 paper deployment of the scheduler benchmarks;
// r > 1 puts it under the paper's uniform duty cycle.
func instance300(b *testing.B, r int) core.Instance {
	b.Helper()
	dep, err := topology.Generate(topology.PaperConfig(300), 1)
	if err != nil {
		b.Fatal(err)
	}
	if r <= 1 {
		return core.Sync(dep.G, dep.Source)
	}
	return core.Async(dep.G, dep.Source, dutycycle.NewUniform(300, r, 9, 0), 0)
}

// Ablation: color-selection rule — Eq. 10's max-E versus utilization-greedy
// and plain first-color selection.
func BenchmarkAblationSelection(b *testing.B) {
	in := instance300(b, 1)
	b.Run("max-E", func(b *testing.B) { benchScheduler(b, in, core.NewEModel()) })
	b.Run("max-coverage", func(b *testing.B) { benchScheduler(b, in, maxCoverage()) })
	b.Run("first-color", func(b *testing.B) { benchScheduler(b, in, firstColor()) })
}

// Ablation: search budget — how much optimality proof G-OPT buys per state.
func BenchmarkAblationBudget(b *testing.B) {
	in := instance300(b, 10)
	for _, budget := range []int{10, 1_000, 100_000} {
		b.Run(byBudget(budget), func(b *testing.B) {
			var res *core.Result
			var err error
			for i := 0; i < b.N; i++ {
				if res, err = core.NewGOPT(budget).Schedule(in); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Schedule.Latency()), "latency")
			exact := 0.0
			if res.Exact {
				exact = 1
			}
			b.ReportMetric(exact, "exact")
		})
	}
}

func byBudget(budget int) string {
	switch {
	case budget >= 1_000_000:
		return "budget-1M"
	case budget >= 100_000:
		return "budget-100k"
	case budget >= 1_000:
		return "budget-1k"
	}
	return "budget-10"
}
