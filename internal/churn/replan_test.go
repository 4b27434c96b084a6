package churn

import (
	"testing"

	"mlbs/internal/core"
	"mlbs/internal/sim"
)

// checkRepaired asserts the contract every repaired plan must satisfy:
// model-valid against the mutated instance, collision-free under the
// physics, and covering exactly the live node set.
func checkRepaired(t *testing.T, rr *ReplanResult) {
	t.Helper()
	if rr.Result == nil || rr.Result.Schedule == nil {
		t.Fatal("replan returned no schedule")
	}
	if err := rr.Result.Schedule.Validate(rr.Instance); err != nil {
		t.Fatalf("repaired schedule invalid (%s): %v", rr.Strategy, err)
	}
	rep, err := sim.Replay(rr.Instance, rr.Result.Schedule)
	if err != nil {
		t.Fatalf("replay failed (%s): %v", rr.Strategy, err)
	}
	if !rep.Completed {
		t.Fatalf("replay incomplete or collided (%s): %+v", rr.Strategy, rep.Usage)
	}
	if rr.Result.PA != rr.Result.Schedule.PA() {
		t.Fatalf("PA %d does not match schedule end %d", rr.Result.PA, rr.Result.Schedule.PA())
	}
}

func basePlanFor(t *testing.T, in core.Instance) *core.Result {
	t.Helper()
	res, err := core.NewGOPT(0).Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestReplanJitterKeepsPrefix(t *testing.T) {
	in := paperSync(t, 80, 11)
	base := basePlanFor(t, in)
	rp := NewReplanner(ReplanConfig{})
	// A microscopic jitter cannot change any adjacency (positions are
	// floats drawn over a 50-ft area; 1e-9 ft moves nothing across the
	// 10-ft threshold with overwhelming probability).
	rr, err := rp.Replan(in, base.Schedule, Delta{Events: []Event{
		{Kind: PositionJitter, Node: (in.Source + 1) % in.G.N(), X: 1e-9, Y: 1e-9},
	}})
	if err != nil {
		t.Fatal(err)
	}
	checkRepaired(t, rr)
	if rr.Strategy != StrategyPrefix {
		t.Fatalf("unchanged adjacency should keep the whole plan, got %s (kept %d/%d)",
			rr.Strategy, rr.KeptAdvances, rr.BaseAdvances)
	}
	if rr.Result.PA != base.PA {
		t.Fatalf("prefix strategy changed PA: %d → %d", base.PA, rr.Result.PA)
	}
}

func TestReplanNodeFailRepairs(t *testing.T) {
	in := paperSync(t, 100, 5)
	base := basePlanFor(t, in)
	rp := NewReplanner(ReplanConfig{})
	n := in.G.N()
	repaired := 0
	for victim := 0; victim < n && repaired < 8; victim++ {
		if victim == in.Source {
			continue
		}
		rr, err := rp.Replan(in, base.Schedule, Delta{Events: []Event{{Kind: NodeFail, Node: victim}}})
		if err != nil {
			continue // this victim disconnects the deployment
		}
		repaired++
		checkRepaired(t, rr)
		if rr.Instance.G.N() != n-1 {
			t.Fatalf("mutated instance has %d nodes, want %d", rr.Instance.G.N(), n-1)
		}
	}
	if repaired == 0 {
		t.Fatal("no failure was repairable on this deployment")
	}
}

func TestReplanJoinCoversNewNode(t *testing.T) {
	in := paperSync(t, 80, 3)
	base := basePlanFor(t, in)
	rp := NewReplanner(ReplanConfig{})
	// Join next to the source so connectivity is guaranteed.
	p := in.G.Pos(in.Source)
	rr, err := rp.Replan(in, base.Schedule, Delta{Events: []Event{
		{Kind: NodeJoin, X: p.X + 0.5, Y: p.Y + 0.5},
	}})
	if err != nil {
		t.Fatal(err)
	}
	checkRepaired(t, rr)
	if rr.Instance.G.N() != in.G.N()+1 {
		t.Fatalf("join did not add a node")
	}
}

func TestReplanLargeDeltaFallsBackCold(t *testing.T) {
	in := paperSync(t, 80, 9)
	base := basePlanFor(t, in)
	rp := NewReplanner(ReplanConfig{})
	// Doubling the radius rewires essentially every adjacency: the blast
	// radius is the whole schedule.
	rr, err := rp.Replan(in, base.Schedule, Delta{Events: []Event{
		{Kind: RadiusChange, Radius: 2 * in.G.Radius()},
	}})
	if err != nil {
		t.Fatal(err)
	}
	checkRepaired(t, rr)
	if rr.Strategy == StrategyPrefix {
		t.Fatalf("radius doubling kept the full plan — classification is not looking at the graph")
	}
}

func TestReplanDutyCycle(t *testing.T) {
	in := paperDuty(t, 60, 4, 6)
	base := basePlanFor(t, in)
	rp := NewReplanner(ReplanConfig{})
	n := in.G.N()
	done := 0
	for victim := 0; victim < n && done < 4; victim++ {
		if victim == in.Source {
			continue
		}
		rr, err := rp.Replan(in, base.Schedule, Delta{Events: []Event{{Kind: NodeFail, Node: victim}}})
		if err != nil {
			continue
		}
		done++
		checkRepaired(t, rr)
	}
	if done == 0 {
		t.Fatal("no duty-cycle failure was repairable")
	}
}

// lateSenderVictims lists non-source senders of advances in the second
// half of the schedule — failing one strands the schedule mid-way, the
// situation where the incremental/cold decision actually matters.
func lateSenderVictims(res *core.Result, source int) []int {
	var out []int
	advs := res.Schedule.Advances
	for _, adv := range advs[len(advs)/2:] {
		for _, u := range adv.Senders {
			if u != source {
				out = append(out, u)
			}
		}
	}
	return out
}

func TestReplanIncrementalVsForcedCold(t *testing.T) {
	in := paperSync(t, 100, 13)
	base := basePlanFor(t, in)
	inc := NewReplanner(ReplanConfig{})
	cold := NewReplanner(ReplanConfig{MinKeptFrac: -1})
	victims := lateSenderVictims(base, in.Source)
	if len(victims) == 0 {
		t.Fatal("no late senders on this deployment")
	}
	// MinKeptFrac<0 is total: even a delta whose surviving prefix covers
	// everything (a no-op jitter) must go through the cold engine.
	nr, err := cold.Replan(in, base.Schedule, Delta{Events: []Event{
		{Kind: PositionJitter, Node: (in.Source + 1) % in.G.N(), X: 1e-9, Y: 0},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if nr.Strategy != StrategyCold {
		t.Fatalf("forced-cold replanner returned %s for a no-op delta", nr.Strategy)
	}
	tried := false
	for _, victim := range victims {
		d := Delta{Events: []Event{{Kind: NodeFail, Node: victim}}}
		rr, err := inc.Replan(in, base.Schedule, d)
		if err != nil {
			continue // victim disconnects the deployment
		}
		tried = true
		checkRepaired(t, rr)
		if rr.Strategy != StrategyIncremental {
			continue // some victims strand so much that prefix/cold wins
		}
		cr, err := cold.Replan(in, base.Schedule, d)
		if err != nil {
			t.Fatal(err)
		}
		checkRepaired(t, cr)
		if cr.Strategy != StrategyCold {
			t.Fatalf("MinKeptFrac<0 must force cold search, got %s", cr.Strategy)
		}
		if cr.KeptAdvances != 0 {
			t.Fatalf("cold result reports %d kept advances", cr.KeptAdvances)
		}
		return
	}
	if !tried {
		t.Fatal("every late-sender failure disconnected the deployment")
	}
	t.Fatal("no late-sender failure produced an incremental repair")
}

func TestReplanNilBasePlan(t *testing.T) {
	in := paperSync(t, 50, 1)
	if _, err := NewReplanner(ReplanConfig{}).Replan(in, nil, Delta{}); err == nil {
		t.Fatal("nil base schedule accepted")
	}
}

// The repaired plan must not alias the base schedule: mutating the base
// after a replan must not change the repaired plan.
func TestReplanResultDetachedFromBase(t *testing.T) {
	in := paperSync(t, 60, 21)
	base := basePlanFor(t, in)
	rp := NewReplanner(ReplanConfig{})
	rr, err := rp.Replan(in, base.Schedule, Delta{Events: []Event{
		{Kind: PositionJitter, Node: (in.Source + 1) % in.G.N(), X: 1e-9, Y: 0},
	}})
	if err != nil {
		t.Fatal(err)
	}
	checkRepaired(t, rr)
	for _, adv := range base.Schedule.Advances {
		for i := range adv.Senders {
			adv.Senders[i] = -999
		}
		for i := range adv.Covered {
			adv.Covered[i] = -999
		}
	}
	if err := rr.Result.Schedule.Validate(rr.Instance); err != nil {
		t.Fatalf("repaired plan aliases the base schedule: %v", err)
	}
}

// BenchmarkReplanPrefix times a repair that keeps the whole plan: a
// microscopic jitter on a G-OPT plan (n=300, sync), so the cost is Apply,
// the slot walk of classify and the prefix's Validate, with no search.
func BenchmarkReplanPrefix(b *testing.B) {
	in := paperSync(b, 300, 1)
	res, err := core.NewGOPT(0).Schedule(in)
	if err != nil {
		b.Fatal(err)
	}
	d := Delta{Events: []Event{{Kind: PositionJitter, Node: (in.Source + 1) % in.G.N(), X: 1e-9, Y: 1e-9}}}
	rp := NewReplanner(ReplanConfig{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rr, err := rp.Replan(in, res.Schedule, d)
		if err != nil {
			b.Fatal(err)
		}
		if rr.Strategy != StrategyPrefix {
			b.Fatalf("strategy %s, want prefix", rr.Strategy)
		}
	}
}
