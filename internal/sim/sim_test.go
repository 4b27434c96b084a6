package sim

import (
	"strings"
	"testing"
	"testing/quick"

	"mlbs/internal/bitset"
	"mlbs/internal/core"
	"mlbs/internal/dutycycle"
	"mlbs/internal/geom"
	"mlbs/internal/graph"
	"mlbs/internal/topology"
)

func pathGraph(n int) *graph.Graph {
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{X: float64(i), Y: 0}
	}
	return graph.FromUDG(pos, 1)
}

// fig2a: paper's Figure 2(a), 0-based.
func fig2a() *graph.Graph {
	return graph.NewBuilder(5, nil).
		AddEdge(0, 1).AddEdge(0, 2).
		AddEdge(1, 3).AddEdge(1, 4).
		AddEdge(2, 3).
		Build()
}

func TestReplayValidSchedule(t *testing.T) {
	in := core.Sync(fig2a(), 0)
	res, err := core.NewGOPT(0).Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(in, res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatalf("valid schedule did not complete: %+v", rep)
	}
	if rep.End != res.PA {
		t.Fatalf("physical end %d != schedule end %d", rep.End, res.PA)
	}
	if len(rep.Collisions) != 0 {
		t.Fatalf("collisions in a conflict-free schedule: %v", rep.Collisions)
	}
	if rep.CoveredAt[0] != 0 {
		t.Fatalf("source covered at %d, want Start-1 = 0", rep.CoveredAt[0])
	}
	for v, at := range rep.CoveredAt {
		if at < 0 {
			t.Fatalf("node %d never covered", v)
		}
	}
	// Source + paper-node 2 transmit once each.
	if rep.Usage.Transmissions != 2 {
		t.Fatalf("transmissions = %d, want 2", rep.Usage.Transmissions)
	}
}

func TestReplayDetectsCollision(t *testing.T) {
	// Fire conflicting nodes 2 and 3 (ours 1 and 2) together: node 4
	// (ours 3) hears both and is lost; node 5 (ours 4) still covered.
	in := core.Sync(fig2a(), 0)
	sched := &core.Schedule{Source: 0, Start: 1, Advances: []core.Advance{
		{T: 1, Senders: []graph.NodeID{0}, Covered: []graph.NodeID{1, 2}},
		{T: 2, Senders: []graph.NodeID{1, 2}, Covered: []graph.NodeID{3, 4}},
	}}
	rep, err := Replay(in, sched)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed {
		t.Fatal("colliding schedule reported complete")
	}
	if len(rep.Collisions) != 1 {
		t.Fatalf("collisions = %v, want exactly one", rep.Collisions)
	}
	c := rep.Collisions[0]
	if c.Receiver != 3 || c.T != 2 || len(c.Senders) != 2 {
		t.Fatalf("collision = %+v", c)
	}
	if rep.CoveredAt[3] != -1 {
		t.Fatal("collided node must remain uncovered")
	}
	if rep.CoveredAt[4] != 2 {
		t.Fatalf("node 4 covered at %d, want 2", rep.CoveredAt[4])
	}
}

func TestReplayRejectsImpossibleActions(t *testing.T) {
	in := core.Sync(fig2a(), 0)
	uncovered := &core.Schedule{Source: 0, Start: 1, Advances: []core.Advance{
		{T: 1, Senders: []graph.NodeID{3}},
	}}
	if _, err := Replay(in, uncovered); err == nil || !strings.Contains(err.Error(), "without holding") {
		t.Fatalf("want uncovered-sender error, got %v", err)
	}

	wake := dutycycle.NewFixed(10, 10, [][]int{{1}, {2}, {3}, {4}, {5}})
	inAsync := core.Instance{G: fig2a(), Source: 0, Start: 1, Wake: wake}
	asleep := &core.Schedule{Source: 0, Start: 1, Advances: []core.Advance{
		{T: 1, Senders: []graph.NodeID{0}},
		{T: 3, Senders: []graph.NodeID{1}}, // node 1 wakes at 2, not 3
	}}
	if _, err := Replay(inAsync, asleep); err == nil || !strings.Contains(err.Error(), "sending channel was off") {
		t.Fatalf("want asleep error, got %v", err)
	}

	disorder := &core.Schedule{Source: 0, Start: 1, Advances: []core.Advance{
		{T: 2, Senders: []graph.NodeID{0}},
		{T: 2, Senders: []graph.NodeID{0}},
	}}
	if _, err := Replay(in, disorder); err == nil {
		t.Fatal("out-of-order advances accepted")
	}
}

func TestReplayIncompleteSchedule(t *testing.T) {
	in := core.Sync(pathGraph(4), 0)
	sched := &core.Schedule{Source: 0, Start: 1, Advances: []core.Advance{
		{T: 1, Senders: []graph.NodeID{0}, Covered: []graph.NodeID{1}},
	}}
	rep, err := Replay(in, sched)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed {
		t.Fatal("incomplete broadcast reported complete")
	}
	if rep.CoveredAt[3] != -1 || rep.CoveredAt[2] != -1 {
		t.Fatal("far nodes must be uncovered")
	}
}

func TestUsageAccounting(t *testing.T) {
	// Path of 3, sync: t=1 node0 fires (node1 covered), t=2 node1 fires
	// (node0 duplicate reception, node2 covered).
	in := core.Sync(pathGraph(3), 0)
	res, err := core.NewGOPT(0).Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(in, res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Usage.Transmissions != 2 {
		t.Fatalf("tx = %d, want 2", rep.Usage.Transmissions)
	}
	if rep.Usage.Receptions != 3 { // 1 fresh + (1 fresh + 1 duplicate)
		t.Fatalf("rx = %d, want 3", rep.Usage.Receptions)
	}
	// 2 slots × 3 nodes − 2 transmissions = 4 idle node-slots; AlwaysAwake
	// means no sleep slots.
	if rep.Usage.IdleSlots != 4 || rep.Usage.SleepSlots != 0 {
		t.Fatalf("idle/sleep = %d/%d, want 4/0", rep.Usage.IdleSlots, rep.Usage.SleepSlots)
	}
}

func TestSleepAccounting(t *testing.T) {
	g := pathGraph(2)
	wake := dutycycle.NewFixed(4, 4, [][]int{{1}, {3}})
	in := core.Instance{G: g, Source: 0, Start: 1, Wake: wake}
	sched := &core.Schedule{Source: 0, Start: 1, Advances: []core.Advance{
		{T: 1, Senders: []graph.NodeID{0}, Covered: []graph.NodeID{1}},
	}}
	rep, err := Replay(in, sched)
	if err != nil {
		t.Fatal(err)
	}
	// One slot: node 1 idle and asleep (wake at 3).
	if rep.Usage.IdleSlots != 1 || rep.Usage.SleepSlots != 1 {
		t.Fatalf("idle/sleep = %d/%d, want 1/1", rep.Usage.IdleSlots, rep.Usage.SleepSlots)
	}
}

func TestRunPolicyFloodingCollides(t *testing.T) {
	// Naive flooding on Figure 2(a): every covered node with uncovered
	// neighbors fires each round. Nodes 2 and 3 collide at 4 in round 2;
	// node 4 is covered one round later than optimal via... it never is —
	// both its neighbors keep colliding forever. The physics must show a
	// live-lock, exactly the broadcast-storm failure the paper cites [17].
	in := core.Sync(fig2a(), 0)
	flood := func(w bitset.Set, t int) []graph.NodeID {
		var out []graph.NodeID
		w.ForEach(func(u int) {
			if in.G.Nbr(u).AnyDifference(w) {
				out = append(out, u)
			}
		})
		return out
	}
	rep, _, err := RunPolicy(in, flood, 20)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed {
		t.Fatal("flooding completed despite permanent collision at node 3")
	}
	if len(rep.Collisions) == 0 {
		t.Fatal("flooding produced no collisions")
	}
	if rep.CoveredAt[3] != -1 {
		t.Fatal("node 3 should never be covered under flooding live-lock")
	}
}

func TestRunPolicyMatchesReplay(t *testing.T) {
	// Driving the E-model's advances through RunPolicy must physically
	// reproduce the offline schedule.
	d, err := topology.Generate(topology.PaperConfig(80), 4)
	if err != nil {
		t.Fatal(err)
	}
	in := core.Sync(d.G, d.Source)
	res, err := core.NewEModel().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	byTime := make(map[int][]graph.NodeID)
	for _, adv := range res.Schedule.Advances {
		byTime[adv.T] = adv.Senders
	}
	rep, executed, err := RunPolicy(in, func(w bitset.Set, t int) []graph.NodeID {
		return byTime[t]
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatal("policy run incomplete")
	}
	if rep.End != res.PA {
		t.Fatalf("policy end %d != schedule end %d", rep.End, res.PA)
	}
	if len(executed.Advances) != len(res.Schedule.Advances) {
		t.Fatalf("executed %d advances, want %d", len(executed.Advances), len(res.Schedule.Advances))
	}
}

func TestRunPolicyHorizon(t *testing.T) {
	in := core.Sync(pathGraph(5), 0)
	quiet := func(bitset.Set, int) []graph.NodeID { return nil }
	rep, sched, err := RunPolicy(in, quiet, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed || len(sched.Advances) != 0 {
		t.Fatal("silent policy must time out without advances")
	}
}

// Property: every scheduler's output replays to completion with zero
// collisions on random deployments, sync and async — the simulator and the
// schedulers agree about the model.
func TestQuickSchedulersSurvivePhysics(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := topology.Config{N: 35, AreaSide: 30, Radius: 10, MaxRetries: 60}
		d, err := topology.Generate(cfg, seed)
		if err != nil {
			return true
		}
		wake := dutycycle.NewUniform(d.G.N(), 8, seed, 0)
		for _, in := range []core.Instance{
			core.Sync(d.G, d.Source),
			core.Async(d.G, d.Source, wake, 0),
		} {
			for _, s := range []core.Scheduler{core.NewGOPT(30_000), core.NewEModel()} {
				res, err := s.Schedule(in)
				if err != nil {
					return false
				}
				rep, err := Replay(in, res.Schedule)
				if err != nil || !rep.Completed || len(rep.Collisions) != 0 {
					return false
				}
				if rep.End != res.PA {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkReplay300(b *testing.B) {
	d, err := topology.Generate(topology.PaperConfig(300), 2)
	if err != nil {
		b.Fatal(err)
	}
	in := core.Sync(d.G, d.Source)
	res, err := core.NewEModel().Schedule(in)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Replay(in, res.Schedule); err != nil {
			b.Fatal(err)
		}
	}
}
