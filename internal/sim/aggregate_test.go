package sim

import (
	"math/rand/v2"
	"strings"
	"testing"

	"mlbs/internal/aggregate"
	"mlbs/internal/core"
	"mlbs/internal/dutycycle"
	"mlbs/internal/graph"
	"mlbs/internal/interference"
	"mlbs/internal/topology"
)

// aggCrossCheck plans a convergecast schedule, demands Validate accept it,
// and demands the replay deliver every reading to the sink with zero
// collisions — the aggregation mirror of crossCheck: Validate's
// receiver-safe classes and the replayer's per-channel physics are two
// derivations of the same oracle, and any disagreement is a real bug.
func aggCrossCheck(t *testing.T, name string, in core.Instance) {
	t.Helper()
	var s aggregate.Scheduler
	res, err := s.Schedule(in)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := res.Schedule.Validate(in); err != nil {
		t.Fatalf("%s: planned aggregation schedule invalid: %v", name, err)
	}
	rep, err := ReplayAggregate(in, res.Schedule)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(rep.Collisions) != 0 {
		t.Fatalf("%s: valid aggregation schedule replayed with collisions: %+v", name, rep.Collisions)
	}
	n := in.G.N()
	if !rep.Completed || rep.Delivered != n {
		t.Fatalf("%s: sink holds %d of %d readings (completed=%v)", name, rep.Delivered, n, rep.Completed)
	}
	for u, at := range rep.DeliveredAt {
		if at < 0 {
			t.Fatalf("%s: reading of node %d never delivered", name, u)
		}
	}
	if rep.Slots != res.LatencySlots {
		t.Fatalf("%s: replay took %d slots, schedule claims %d", name, rep.Slots, res.LatencySlots)
	}
}

// TestAggReplayerAgreesWithValidate is the aggregation property test: for
// random sync/duty/K∈{1,2} instances under both interference oracles, a
// schedule accepted by aggregate.Schedule.Validate must replay to a
// complete, collision-free aggregate at the sink.
func TestAggReplayerAgreesWithValidate(t *testing.T) {
	sinr := &interference.SINRParams{Alpha: 3, Beta: 1}
	for _, seed := range []uint64{2, 5} {
		d, err := topology.Generate(topology.PaperConfig(60), seed)
		if err != nil {
			t.Fatal(err)
		}
		sync := core.Sync(d.G, d.Source)
		duty := core.Async(d.G, d.Source, dutycycle.NewUniform(d.G.N(), 5, seed^0xA5, 0), 0)
		multi := sync
		multi.Channels = 2
		cases := []struct {
			name string
			in   core.Instance
		}{
			{"sync/graph", sync},
			{"duty/graph", duty},
			{"k2/graph", multi},
		}
		for _, c := range cases {
			aggCrossCheck(t, c.name, c.in)
			sc := c.in
			sc.SINR = sinr
			aggCrossCheck(t, c.name+"+sinr", sc)
		}
	}
}

// tamperAgg applies one random fault to s, a deep copy the caller owns:
// shift a slot, swap or duplicate a sender, move a sender into an earlier
// advance (before its children, for an inner node), raise or repeat a
// channel, or re-parent a node onto another neighbor.
func tamperAgg(r *rand.Rand, g *graph.Graph, s *aggregate.Schedule) {
	advs := s.Advances
	i := r.IntN(len(advs))
	a := &advs[i]
	op := r.IntN(7)
	if op <= 3 && len(a.Senders) == 0 {
		op += 4 // an emptied advance: tamper its channel instead
	}
	switch op {
	case 0: // shift a slot
		d := r.IntN(3) - 1
		if d == 0 {
			d = 2
		}
		for j := range advs {
			if advs[j].T == a.T {
				advs[j].T += d
			}
		}
	case 1: // swap senders across advances
		b := &advs[r.IntN(len(advs))]
		if len(b.Senders) == 0 {
			return
		}
		x, y := r.IntN(len(a.Senders)), r.IntN(len(b.Senders))
		a.Senders[x], b.Senders[y] = b.Senders[y], a.Senders[x]
	case 2: // duplicate a sender into an advance
		b := &advs[r.IntN(len(advs))]
		b.Senders = append(b.Senders, a.Senders[r.IntN(len(a.Senders))])
	case 3: // move a sender into an earlier (or the same) advance
		x := r.IntN(len(a.Senders))
		u := a.Senders[x]
		a.Senders = append(a.Senders[:x], a.Senders[x+1:]...)
		b := &advs[r.IntN(i+1)]
		b.Senders = append(b.Senders, u)
	case 4: // raise a channel
		a.Channel++
	case 5: // repeat the previous advance's channel
		if i > 0 {
			a.Channel = advs[i-1].Channel
		} else {
			a.Channel = -1
		}
	case 6: // re-parent a node onto another neighbor
		u := graph.NodeID(r.IntN(g.N()))
		if u == s.Sink {
			return
		}
		nbr := g.Adj(u)
		s.Parent[u] = nbr[r.IntN(len(nbr))]
	}
}

// cloneAgg deep-copies s so a tamper leaves the planned schedule intact.
func cloneAgg(s *aggregate.Schedule) *aggregate.Schedule {
	cp := &aggregate.Schedule{Sink: s.Sink, Start: s.Start, Parent: append([]graph.NodeID(nil), s.Parent...)}
	for _, a := range s.Advances {
		cp.Advances = append(cp.Advances, aggregate.Advance{T: a.T, Channel: a.Channel, Senders: append([]graph.NodeID(nil), a.Senders...)})
	}
	return cp
}

// TestAggValidateTamperedReplaysClean tampers planned convergecast
// schedules at random (one or two faults each) over sync and duty, K∈{1,2},
// and both interference oracles: whenever Validate accepts a tampered
// schedule, the replay must still deliver every reading to the sink with
// zero collisions.
func TestAggValidateTamperedReplaysClean(t *testing.T) {
	sinr := &interference.SINRParams{Alpha: 3, Beta: 1}
	r := rand.New(rand.NewPCG(29, 1))
	accepted, rejected := 0, 0
	for _, seed := range []uint64{3, 7} {
		d, err := topology.Generate(topology.PaperConfig(60), seed)
		if err != nil {
			t.Fatal(err)
		}
		sync := core.Sync(d.G, d.Source)
		duty := core.Async(d.G, d.Source, dutycycle.NewUniform(d.G.N(), 10, seed^0xA5, 0), 0)
		for _, base := range []core.Instance{sync, duty} {
			for _, k := range []int{1, 2} {
				for _, model := range []*interference.SINRParams{nil, sinr} {
					in := base
					in.Channels, in.SINR = k, model
					var s aggregate.Scheduler
					res, err := s.Schedule(in)
					if err != nil {
						t.Fatal(err)
					}
					for trial := 0; trial < 150; trial++ {
						cp := cloneAgg(res.Schedule)
						for f := 1 + r.IntN(2); f > 0; f-- {
							tamperAgg(r, d.G, cp)
						}
						if cp.Validate(in) != nil {
							rejected++
							continue
						}
						accepted++
						rep, err := ReplayAggregate(in, cp)
						if err != nil {
							t.Fatalf("seed %d K=%d: accepted schedule does not replay: %v", seed, k, err)
						}
						if !rep.Completed || len(rep.Collisions) != 0 {
							t.Fatalf("seed %d K=%d: accepted tampered schedule replays completed=%v with collisions %+v",
								seed, k, rep.Completed, rep.Collisions)
						}
					}
				}
			}
		}
	}
	t.Logf("%d tampered schedules accepted, %d rejected", accepted, rejected)
	if accepted == 0 || rejected == 0 {
		t.Fatalf("tampering must yield both verdicts: %d accepted, %d rejected", accepted, rejected)
	}
}

// TestAggReplayCollision drives an invalid bundle through the replayer: two
// children whose parents each hear both frames collide at both receivers
// under the protocol model.
func TestAggReplayCollision(t *testing.T) {
	// 0-1, 0-2, 1-3, 2-3 diamond: parents 1 and 2 both hear 3.
	g := graph.NewBuilder(4, nil).
		AddEdge(0, 1).AddEdge(0, 2).
		AddEdge(1, 3).AddEdge(2, 3).AddEdge(1, 2).
		Build()
	in := core.Sync(g, 0)
	sched := &aggregate.Schedule{Sink: 0, Start: 1, Parent: []graph.NodeID{-1, 0, 0, 1}, Advances: []aggregate.Advance{
		{T: 1, Senders: []graph.NodeID{2, 3}}, // parent 1 hears both 2 and 3
		{T: 2, Senders: []graph.NodeID{1}},
	}}
	if err := sched.Validate(in); err == nil || !strings.Contains(err.Error(), "does not decode") {
		t.Fatalf("Validate must reject the bundle, got %v", err)
	}
	rep, err := ReplayAggregate(in, sched)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Collisions) == 0 {
		t.Fatal("replay of a receiver-unsafe bundle must record a collision")
	}
	if rep.Completed {
		t.Fatal("collided execution must not report Completed")
	}
	c := rep.Collisions[0]
	if c.T != 1 || c.Receiver != 1 {
		t.Fatalf("collision = %+v, want T=1 at receiver 1", c)
	}
}

// TestAggReplaySleepingParentLosesFrame: a frame sent while the parent
// sleeps is silently lost — no collision, but the aggregate is incomplete.
func TestAggReplaySleepingParentLosesFrame(t *testing.T) {
	g := graph.NewBuilder(3, nil).AddEdge(0, 1).AddEdge(1, 2).Build()
	wake := dutycycle.NewFixed(2, 1, [][]int{{0, 1}, {0}, {0, 1}})
	in := core.Async(g, 0, wake, 0)
	sched := &aggregate.Schedule{Sink: 0, Start: in.Start, Parent: []graph.NodeID{-1, 0, 1}, Advances: []aggregate.Advance{
		{T: 1, Senders: []graph.NodeID{2}}, // parent 1 asleep at odd slots
		{T: 2, Senders: []graph.NodeID{1}},
	}}
	rep, err := ReplayAggregate(in, sched)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Collisions) != 0 {
		t.Fatalf("sleep loss must not be a collision: %+v", rep.Collisions)
	}
	if rep.Completed || rep.Delivered != 2 {
		t.Fatalf("delivered %d readings (completed=%v), want 2 (node 2's reading lost)", rep.Delivered, rep.Completed)
	}
	if rep.DeliveredAt[2] != -1 {
		t.Fatalf("node 2's reading delivered at %d, want never", rep.DeliveredAt[2])
	}
}
