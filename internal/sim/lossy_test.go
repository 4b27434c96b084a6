package sim_test

import (
	"testing"

	"mlbs/internal/core"
	"mlbs/internal/emodel"
	"mlbs/internal/geom"
	"mlbs/internal/graph"
	"mlbs/internal/localized"
	"mlbs/internal/sim"
	"mlbs/internal/topology"
)

func lossyPath(n int) *graph.Graph {
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{X: float64(i), Y: 0}
	}
	return graph.FromUDG(pos, 1)
}

func TestIIDLossDeterministic(t *testing.T) {
	a := sim.IIDLoss(0.3, 7)
	b := sim.IIDLoss(0.3, 7)
	for i := 0; i < 200; i++ {
		if a(i, i%5, (i+1)%5) != b(i, i%5, (i+1)%5) {
			t.Fatal("IIDLoss not deterministic")
		}
	}
}

func TestIIDLossRate(t *testing.T) {
	loss := sim.IIDLoss(0.25, 3)
	dropped := 0
	const trials = 40000
	for i := 0; i < trials; i++ {
		if loss(i, 1, 2) {
			dropped++
		}
	}
	rate := float64(dropped) / trials
	if rate < 0.23 || rate > 0.27 {
		t.Fatalf("empirical loss rate = %f, want ≈0.25", rate)
	}
	if sim.IIDLoss(0, 1)(1, 2, 3) {
		t.Fatal("zero rate must never drop")
	}
}

func TestReplayLossyNoLossMatchesReplay(t *testing.T) {
	d, err := topology.Generate(topology.PaperConfig(80), 2)
	if err != nil {
		t.Fatal(err)
	}
	in := core.Sync(d.G, d.Source)
	res, err := core.NewEModel().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := sim.Replay(in, res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := sim.ReplayLossy(in, res.Schedule, sim.NoLoss)
	if err != nil {
		t.Fatal(err)
	}
	if lossy.LostFrames != 0 || lossy.Completed != ideal.Completed || lossy.End != ideal.End {
		t.Fatalf("NoLoss replay diverged: %+v vs %+v", lossy.Report, ideal)
	}
}

// An offline schedule degrades under loss: the plan fires each relay once,
// so a lost frame permanently strands downstream nodes (the fragility
// Section VI points out for offline interference-free schedules).
func TestReplayLossyOfflinePlanStrands(t *testing.T) {
	g := lossyPath(6)
	in := core.Sync(g, 0)
	res, err := core.NewGOPT(0).Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	// Drop exactly the frame 1→2 at slot 2 (the second advance).
	loss := func(t int, from, to graph.NodeID) bool { return t == 2 && from == 1 && to == 2 }
	rep, err := sim.ReplayLossy(in, res.Schedule, loss)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed {
		t.Fatal("plan completed despite a severed relay")
	}
	if rep.LostFrames != 1 {
		t.Fatalf("lost = %d, want 1", rep.LostFrames)
	}
	// Everything past node 1 is stranded: node 2's only upstream frame died
	// and the plan never retransmits.
	for v := 2; v < 6; v++ {
		if rep.CoveredAt[v] != -1 {
			t.Fatalf("node %d covered at %d despite the severed link", v, rep.CoveredAt[v])
		}
	}
}

func TestReplayLossySilentStrandedSenders(t *testing.T) {
	// A stranded sender must be skipped silently, not crash the replay.
	g := lossyPath(4)
	in := core.Sync(g, 0)
	res, err := core.NewGOPT(0).Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	loss := func(t int, from, to graph.NodeID) bool { return from == 0 } // source isolated
	rep, err := sim.ReplayLossy(in, res.Schedule, loss)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed || rep.CoveredAt[1] != -1 {
		t.Fatalf("report = %+v", rep.Report)
	}
}

// The localized scheme retransmits naturally (a candidate stays a
// candidate until its receivers are covered), so it completes even over a
// harsh channel — the robustness contrast to the offline plan above.
func TestRunPolicyLossyLocalizedRecovers(t *testing.T) {
	d, err := topology.Generate(topology.PaperConfig(60), 4)
	if err != nil {
		t.Fatal(err)
	}
	in := core.Sync(d.G, d.Source)
	tab := localizedTable(t, in)
	loss := sim.IIDLoss(0.3, 11)
	rep, sched, err := sim.RunPolicyLossy(in, localized.Policy(in, tab), 0, loss)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatalf("localized scheme failed to complete under 30%% loss: %+v", rep.Report)
	}
	if rep.LostFrames == 0 {
		t.Fatal("expected dropped frames at 30% loss")
	}
	if len(sched.Advances) == 0 {
		t.Fatal("no advances recorded")
	}
	// Retransmissions cost energy: more transmissions than the lossless run.
	ideal, _, err := sim.RunPolicy(in, localized.Policy(in, tab), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Usage.Transmissions <= ideal.Usage.Transmissions {
		t.Fatalf("lossy run used %d transmissions, lossless %d — retransmission missing",
			rep.Usage.Transmissions, ideal.Usage.Transmissions)
	}
}

func TestRunPolicyLossyDeterministic(t *testing.T) {
	d, err := topology.Generate(topology.PaperConfig(50), 6)
	if err != nil {
		t.Fatal(err)
	}
	in := core.Sync(d.G, d.Source)
	tab := localizedTable(t, in)
	loss := sim.IIDLoss(0.2, 21)
	a, _, err := sim.RunPolicyLossy(in, localized.Policy(in, tab), 0, loss)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := sim.RunPolicyLossy(in, localized.Policy(in, tab), 0, loss)
	if err != nil {
		t.Fatal(err)
	}
	if a.End != b.End || a.LostFrames != b.LostFrames {
		t.Fatal("lossy run not deterministic")
	}
}

// localizedTable builds the E table the localized policy uses.
func localizedTable(t *testing.T, in core.Instance) *emodel.Table {
	t.Helper()
	tab, err := emodel.New(in.G, in.Wake)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}
