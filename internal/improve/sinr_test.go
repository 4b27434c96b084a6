package improve

import (
	"testing"

	"mlbs/internal/core"
	"mlbs/internal/geom"
	"mlbs/internal/graph"
	"mlbs/internal/interference"
)

// sinrChain builds two parallel relay arms close enough to jam each other
// under SINR but conflict-free in the protocol model: the relays share no
// uncovered neighbor, yet u2 sits only 1.2 units from u1's receiver while
// u1 sits 1 unit away, so firing both leaves v1 at SINR 1/(1/1.44) ≈ 1.44
// < β = 2.
func sinrChain() (core.Instance, *core.Schedule) {
	pos := []geom.Point{
		{X: -1, Y: 0},  // 0: source
		{X: 0, Y: 0},   // 1: relay u1
		{X: 1, Y: 0},   // 2: receiver v1
		{X: 2.2, Y: 0}, // 3: relay u2
		{X: 3.2, Y: 0}, // 4: receiver v2
	}
	g := graph.NewBuilder(5, pos).
		AddEdge(0, 1).AddEdge(0, 3).
		AddEdge(1, 2).AddEdge(3, 4).
		Build()
	in := core.Sync(g, 0)
	sched := &core.Schedule{Source: 0, Start: 1, Advances: []core.Advance{
		{T: 1, Senders: []graph.NodeID{0}, Covered: []graph.NodeID{1, 3}},
		{T: 2, Senders: []graph.NodeID{1}, Covered: []graph.NodeID{2}},
		{T: 3, Senders: []graph.NodeID{3}, Covered: []graph.NodeID{4}},
	}}
	return in, sched
}

// TestImproveMergeRespectsSINR pins the satellite bugfix: the improver's
// slot-merge move must consult the instance's interference oracle, not the
// protocol-model predicate. The same 3-slot schedule merges to 2 slots
// under the graph model but must stay at 3 under SINR parameters that make
// the merged slot undecodable at v1.
func TestImproveMergeRespectsSINR(t *testing.T) {
	in, sched := sinrChain()
	imp := New()
	out, _, err := imp.Improve(in, sched, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.End() != 2 {
		t.Fatalf("graph model: improver left end=%d, want the relays merged into slot 2", out.End())
	}
	if err := out.Validate(in); err != nil {
		t.Fatalf("graph-improved schedule invalid: %v", err)
	}
	replayClean(t, in, out)

	in, sched = sinrChain()
	in.SINR = &interference.SINRParams{Alpha: 2, Beta: 2}
	if err := sched.Validate(in); err != nil {
		t.Fatalf("input schedule must be SINR-valid: %v", err)
	}
	out, _, err = imp.Improve(in, sched, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(in); err != nil {
		t.Fatalf("SINR-improved schedule invalid: %v", err)
	}
	replayClean(t, in, out)
	if out.End() != 3 {
		t.Fatalf("SINR model: improver produced end=%d, want 3 (merging the relays is SINR-illegal)", out.End())
	}
}
