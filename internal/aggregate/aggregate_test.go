package aggregate

import (
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"mlbs/internal/core"
	"mlbs/internal/dutycycle"
	"mlbs/internal/geom"
	"mlbs/internal/graph"
	"mlbs/internal/interference"
	"mlbs/internal/topology"
)

// line returns the path 0-1-2-...-(n-1) with unit spacing.
func line(n int) *graph.Graph {
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{X: float64(i), Y: 0}
	}
	b := graph.NewBuilder(n, pos)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	return b.Build()
}

func TestSPTLine(t *testing.T) {
	g := line(4)
	parent, _, err := SPT(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []graph.NodeID{-1, 0, 1, 2}
	for u, p := range parent {
		if p != want[u] {
			t.Fatalf("parent[%d] = %d, want %d", u, p, want[u])
		}
	}
}

func TestBoundedSPTSpreadsChildren(t *testing.T) {
	// Star-ish: sink 0 adjacent to relays 1,2; leaves 3..8 adjacent to both
	// relays. SPT sends every leaf to relay 1 (lowest ID); bounded with
	// maxChildren=3 must split them 3/3.
	b := graph.NewBuilder(9, nil).AddEdge(0, 1).AddEdge(0, 2)
	for leaf := graph.NodeID(3); leaf < 9; leaf++ {
		b.AddEdge(1, leaf).AddEdge(2, leaf)
	}
	g := b.Build()
	parent, _, err := BoundedSPT(g, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	load := map[graph.NodeID]int{}
	for leaf := graph.NodeID(3); leaf < 9; leaf++ {
		load[parent[leaf]]++
	}
	if load[1] != 3 || load[2] != 3 {
		t.Fatalf("leaf parents split %d/%d, want 3/3", load[1], load[2])
	}
	plain, _, err := SPT(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := func() (c int) {
		for leaf := graph.NodeID(3); leaf < 9; leaf++ {
			if plain[leaf] == 1 {
				c++
			}
		}
		return
	}(); n != 6 {
		t.Fatalf("SPT sends %d of 6 leaves to relay 1, want all", n)
	}
}

func TestScheduleLineLatency(t *testing.T) {
	// On a path with sink at one end, convergecast needs exactly one slot
	// per hop when packed greedily: nodes 3,2,1 fire in a pipeline but the
	// protocol model forbids concurrent neighbors sharing a receiver, so
	// the latency is pinned by construction.
	g := line(4)
	in := core.Sync(g, 0)
	var s Scheduler
	res, err := s.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(in); err != nil {
		t.Fatal(err)
	}
	if res.LatencySlots != res.Schedule.Latency() {
		t.Fatalf("LatencySlots %d != Schedule.Latency %d", res.LatencySlots, res.Schedule.Latency())
	}
	// Lower bound: the farthest node is 3 hops out and each hop is a
	// distinct slot on its chain, so at least 3 slots.
	if res.LatencySlots < 3 {
		t.Fatalf("latency %d below the 3-hop lower bound", res.LatencySlots)
	}
}

func TestScheduleTransmitOnce(t *testing.T) {
	d, err := topology.Generate(topology.PaperConfig(60), 2)
	if err != nil {
		t.Fatal(err)
	}
	in := core.Sync(d.G, d.Source)
	var s Scheduler
	res, err := s.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[graph.NodeID]int{}
	for _, adv := range res.Schedule.Advances {
		for _, u := range adv.Senders {
			seen[u]++
		}
	}
	if len(seen) != d.G.N()-1 {
		t.Fatalf("%d distinct senders, want %d", len(seen), d.G.N()-1)
	}
	for u, c := range seen {
		if c != 1 {
			t.Fatalf("node %d transmits %d times", u, c)
		}
	}
	if err := res.Schedule.Validate(in); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleDutyAndChannels(t *testing.T) {
	d, err := topology.Generate(topology.PaperConfig(60), 5)
	if err != nil {
		t.Fatal(err)
	}
	wake := dutycycle.NewUniform(d.G.N(), 5, 5^0xA5, 0)
	duty := core.Async(d.G, d.Source, wake, 0)
	var s Scheduler
	dres, err := s.Schedule(duty)
	if err != nil {
		t.Fatal(err)
	}
	if err := dres.Schedule.Validate(duty); err != nil {
		t.Fatal(err)
	}

	multi := core.Sync(d.G, d.Source)
	multi.Channels = 4
	mres, err := s.Schedule(multi)
	if err != nil {
		t.Fatal(err)
	}
	if err := mres.Schedule.Validate(multi); err != nil {
		t.Fatal(err)
	}
	single := core.Sync(d.G, d.Source)
	sres, err := s.Schedule(single)
	if err != nil {
		t.Fatal(err)
	}
	if mres.LatencySlots > sres.LatencySlots {
		t.Fatalf("K=4 latency %d worse than K=1 latency %d", mres.LatencySlots, sres.LatencySlots)
	}
	usedHigher := false
	for _, adv := range mres.Schedule.Advances {
		if adv.Channel > 0 {
			usedHigher = true
		}
	}
	if !usedHigher {
		t.Fatal("K=4 schedule never used a channel above 0")
	}
}

func TestScheduleSINR(t *testing.T) {
	d, err := topology.Generate(topology.PaperConfig(60), 2)
	if err != nil {
		t.Fatal(err)
	}
	in := core.Sync(d.G, d.Source)
	in.SINR = &interference.SINRParams{Alpha: 3, Beta: 1}
	var s Scheduler
	res, err := s.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(in); err != nil {
		t.Fatal(err)
	}
}

// TestScheduleStrandedLink: a noise floor above every link's received
// power strands the whole tree, so once a ready node's parent listens the
// scheduler must name the first stranded link instead of retrying forever.
// Node 1 sleeps at odd slots, so the leaf 2 first waits a slot.
func TestScheduleStrandedLink(t *testing.T) {
	wake := dutycycle.NewFixed(2, 1, [][]int{{0, 1}, {0}, {0, 1}})
	in := core.Async(line(3), 0, wake, 1)
	in.SINR = &interference.SINRParams{Alpha: 2, Beta: 1, Noise: 2}
	var s Scheduler
	_, err := s.Schedule(in)
	if err == nil || err.Error() != "aggregate: node 2 cannot decode at parent 1 under sinr" {
		t.Fatalf("err = %v, want node 2 stranded at parent 1", err)
	}
}

// TestScheduleSkipsAsleepSlots: stretching every wake slot (and the
// period) by m stretches the plan's slots by m and changes nothing else.
// The scheduler jumps over slots in which no ready node's parent listens,
// so a period above 10^10 plans as fast as a period of ten.
func TestScheduleSkipsAsleepSlots(t *testing.T) {
	d, err := topology.Generate(topology.PaperConfig(60), 3)
	if err != nil {
		t.Fatal(err)
	}
	const r, m = 10, 1 << 30
	rng := rand.New(rand.NewPCG(3, 29))
	slots, stretched := make([][]int, d.G.N()), make([][]int, d.G.N())
	for u := range slots {
		w := rng.IntN(r)
		slots[u], stretched[u] = []int{w}, []int{w * m}
	}
	small := core.Instance{G: d.G, Source: d.Source, Wake: dutycycle.NewFixed(r, r, slots)}
	big := core.Instance{G: d.G, Source: d.Source, Wake: dutycycle.NewFixed(r*m, r*m, stretched)}
	for _, tree := range []Tree{TreeSPT, TreeBounded} {
		s := Scheduler{Tree: tree}
		ref, err := s.Schedule(small)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Schedule(big)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Schedule.Validate(big); err != nil {
			t.Fatal(err)
		}
		want, got := ref.Schedule.Advances, res.Schedule.Advances
		if len(got) != len(want) {
			t.Fatalf("%s: %d advances stretched, %d at period %d", s.Name(), len(got), len(want), r)
		}
		for i, a := range want {
			if b := got[i]; b.T != a.T*m || b.Channel != a.Channel || !slices.Equal(b.Senders, a.Senders) {
				t.Fatalf("%s: advance %d is %+v stretched, %+v at period %d", s.Name(), i, b, a, r)
			}
		}
	}
}

func TestScheduleBoundedTree(t *testing.T) {
	d, err := topology.Generate(topology.PaperConfig(60), 2)
	if err != nil {
		t.Fatal(err)
	}
	in := core.Sync(d.G, d.Source)
	s := Scheduler{Tree: TreeBounded}
	res, err := s.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduler != "agg-bounded" {
		t.Fatalf("scheduler name %q", res.Scheduler)
	}
	if err := res.Schedule.Validate(in); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	g := line(4)
	in := core.Sync(g, 0)
	var s Scheduler
	res, err := s.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	good := res.Schedule

	cases := []struct {
		name string
		mut  func(s *Schedule)
		want string
	}{
		{"wrong sink", func(s *Schedule) { s.Sink = 1 }, "instance sink"},
		{"bad parent edge", func(s *Schedule) { s.Parent[3] = 1 }, "not in graph"},
		{"cycle", func(s *Schedule) { s.Parent[1] = 2; s.Parent[2] = 1 }, "never reaches sink"},
		{"sink transmits", func(s *Schedule) {
			s.Advances[0].Senders = append(s.Advances[0].Senders, 0)
		}, "sink 0 transmits"},
		{"missing transmission", func(s *Schedule) { s.Advances = s.Advances[:len(s.Advances)-1] }, "non-sink nodes transmitted"},
		{"double transmission", func(s *Schedule) {
			last := s.Advances[len(s.Advances)-1]
			s.Advances = append(s.Advances, Advance{T: last.T + 1, Senders: last.Senders})
		}, "transmits twice"},
		{"out of order", func(s *Schedule) { s.Advances[0].T = s.Advances[len(s.Advances)-1].T + 5 }, "not after"},
	}
	for _, tc := range cases {
		cp := &Schedule{Sink: good.Sink, Start: good.Start, Parent: append([]graph.NodeID(nil), good.Parent...)}
		for _, adv := range good.Advances {
			cp.Advances = append(cp.Advances, Advance{T: adv.T, Channel: adv.Channel, Senders: append([]graph.NodeID(nil), adv.Senders...)})
		}
		tc.mut(cp)
		err := cp.Validate(in)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if err := good.Validate(in); err != nil {
		t.Fatalf("unmutated schedule must stay valid: %v", err)
	}
}

func TestValidatePrecedence(t *testing.T) {
	// 0-1-2 path: node 1 may not fire before (or with) its child 2.
	g := line(3)
	in := core.Sync(g, 0)
	bad := &Schedule{Sink: 0, Start: 1, Parent: []graph.NodeID{-1, 0, 1}, Advances: []Advance{
		{T: 1, Senders: []graph.NodeID{1}},
		{T: 2, Senders: []graph.NodeID{2}},
	}}
	err := bad.Validate(in)
	if err == nil || !strings.Contains(err.Error(), "children still pending") {
		t.Fatalf("err = %v, want precedence violation", err)
	}
}

func TestValidateReceiverWake(t *testing.T) {
	// Parent 1 of sender 2 must be awake at the transmit slot. Fixed wake:
	// node 1 awake only at even slots (period 2).
	g := line(3)
	wake := dutycycle.NewFixed(2, 1, [][]int{{0, 1}, {0}, {0, 1}})
	in := core.Async(g, 0, wake, 0)
	sched := &Schedule{Sink: 0, Start: in.Start, Parent: []graph.NodeID{-1, 0, 1}, Advances: []Advance{
		{T: 1, Senders: []graph.NodeID{2}}, // parent 1 asleep at odd slot
		{T: 2, Senders: []graph.NodeID{1}},
	}}
	err := sched.Validate(in)
	if err == nil || !strings.Contains(err.Error(), "asleep") {
		t.Fatalf("err = %v, want receiver-asleep violation", err)
	}
	good := &Schedule{Sink: 0, Start: in.Start, Parent: []graph.NodeID{-1, 0, 1}, Advances: []Advance{
		{T: 2, Senders: []graph.NodeID{2}},
		{T: 3, Senders: []graph.NodeID{1}},
	}}
	if err := good.Validate(in); err != nil {
		t.Fatal(err)
	}
}

func TestValidateOneRadioPerSlot(t *testing.T) {
	// Two children of the same parent on different channels in one slot:
	// the parent cannot tune to both.
	pos := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}}
	g := graph.NewBuilder(3, pos).AddEdge(0, 1).AddEdge(0, 2).Build()
	in := core.Sync(g, 0)
	in.Channels = 2
	sched := &Schedule{Sink: 0, Start: 1, Parent: []graph.NodeID{-1, 0, 0}, Advances: []Advance{
		{T: 1, Channel: 0, Senders: []graph.NodeID{1}},
		{T: 1, Channel: 1, Senders: []graph.NodeID{2}},
	}}
	err := sched.Validate(in)
	if err == nil || !strings.Contains(err.Error(), "one radio") {
		t.Fatalf("err = %v, want one-radio violation", err)
	}
}

func TestValidateReceiverSafety(t *testing.T) {
	// Nodes 1 and 2 both adjacent to each other's parents: concurrent
	// transmission collides at both receivers under the protocol model.
	pos := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}, {X: 3, Y: 0}}
	b := graph.NewBuilder(4, pos)
	b.AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 3).AddEdge(0, 2).AddEdge(1, 3)
	g := b.Build()
	in := core.Sync(g, 0)
	sched := &Schedule{Sink: 0, Start: 1, Parent: []graph.NodeID{-1, 0, 0, 1}, Advances: []Advance{
		{T: 1, Senders: []graph.NodeID{2, 3}},
		{T: 2, Senders: []graph.NodeID{1}},
	}}
	err := sched.Validate(in)
	if err == nil || !strings.Contains(err.Error(), "does not decode") {
		t.Fatalf("err = %v, want receiver-safety violation", err)
	}
}

func TestSINRCaptureAdmitsProtocolIllegalBundle(t *testing.T) {
	// Sink 0 hears both concurrent senders 1 and 3 (edges 0-1 and 0-3), so
	// the protocol model collides at 0; under SINR node 1 shouts at power
	// 100 and 0 captures it, while far-away parent 2 still decodes its
	// whisper-close child 3.
	pos := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 10, Y: 10}, {X: 10.1, Y: 10}}
	g := graph.NewBuilder(4, pos).
		AddEdge(0, 1).AddEdge(0, 2).AddEdge(0, 3).
		AddEdge(2, 3).
		Build()
	parent := []graph.NodeID{-1, 0, 0, 2}
	sched := &Schedule{Sink: 0, Start: 1, Parent: parent, Advances: []Advance{
		{T: 1, Senders: []graph.NodeID{1, 3}},
		{T: 2, Senders: []graph.NodeID{2}},
	}}
	graphIn := core.Sync(g, 0)
	if err := sched.Validate(graphIn); err == nil || !strings.Contains(err.Error(), "does not decode") {
		t.Fatalf("protocol model must reject the concurrent pair, got %v", err)
	}
	sinrIn := core.Sync(g, 0)
	sinrIn.SINR = &interference.SINRParams{Alpha: 2, Beta: 2, Power: []float64{1, 100, 1, 1}}
	if err := sched.Validate(sinrIn); err != nil {
		t.Fatalf("SINR model must accept the capturing pair: %v", err)
	}
}
