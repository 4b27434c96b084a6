package aggregate

import (
	"strings"
	"testing"

	"mlbs/internal/core"
	"mlbs/internal/geom"
	"mlbs/internal/graph"
	"mlbs/internal/topology"
)

// walk replays s through sw with no policy checks of its own.
func walk(sw *SlotWalker, in core.Instance, s *Schedule) error {
	sw.Reset(in, s.Parent)
	for i := 0; i < len(s.Advances); {
		t := s.Advances[i].T
		if err := sw.Begin(t); err != nil {
			return err
		}
		for ; i < len(s.Advances) && s.Advances[i].T == t; i++ {
			if err := sw.Fire(s.Advances[i].Channel, s.Advances[i].Senders); err != nil {
				return err
			}
		}
		sw.End()
	}
	return nil
}

// TestWalkerAllocFree pins the walker's warm path at zero allocations: a
// valid planned schedule, a greedy slot of Join calls, and a rejected
// bundle whose error keeps its sender list unformatted until read.
func TestWalkerAllocFree(t *testing.T) {
	d, err := topology.Generate(topology.PaperConfig(60), 2)
	if err != nil {
		t.Fatal(err)
	}
	in := core.Sync(d.G, d.Source)
	in.Channels = 2
	var s Scheduler
	res, err := s.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	// Receiver-unsafe: 2 and 3 collide at both parents (see
	// TestValidateReceiverSafety).
	pos := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}, {X: 3, Y: 0}}
	bad := graph.NewBuilder(4, pos).AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 3).AddEdge(0, 2).AddEdge(1, 3).Build()
	badIn := core.Sync(bad, 0)
	tampered := &Schedule{Sink: 0, Start: 1, Parent: []graph.NodeID{-1, 0, 0, 1}, Advances: []Advance{
		{T: 1, Senders: []graph.NodeID{2, 3}},
		{T: 2, Senders: []graph.NodeID{1}},
	}}

	var sw SlotWalker
	var bundle []graph.NodeID
	run := func() {
		if err := walk(&sw, in, res.Schedule); err != nil {
			t.Fatal(err)
		}
		leaves := sw.Reset(in, res.Schedule.Parent)
		if err := sw.Begin(in.Start); err != nil {
			t.Fatal(err)
		}
		bundle = bundle[:0]
		for _, u := range leaves {
			bundle, _ = sw.Join(bundle, u)
		}
		if err := walk(&sw, badIn, tampered); err == nil {
			t.Fatal("walker accepted a receiver-unsafe bundle")
		}
	}
	run() // warm the walker's buffers for both sizes
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Fatalf("warm walk allocates %.1f times, want 0", allocs)
	}
	err = walk(&sw, badIn, tampered)
	if want := tampered.Validate(badIn); err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("walker error %v, Validate error %v", err, want)
	}
	if !strings.Contains(err.Error(), "(senders [2 3])") {
		t.Fatalf("error %q does not name the bundle", err)
	}
}

// TestWalkerJoin: Join grows a receiver-safe bundle and refuses an unsafe
// one, MaySend and Fire apply the sender rules, and End's ready set drops
// the fired leaves and gains the parent they unblocked.
func TestWalkerJoin(t *testing.T) {
	// Sink 0; 1 and 2 are its children; 3 is 1's child and hears 2 too.
	pos := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 1}}
	g := graph.NewBuilder(4, pos).AddEdge(0, 1).AddEdge(0, 2).AddEdge(1, 3).AddEdge(2, 3).AddEdge(1, 2).Build()
	in := core.Sync(g, 0)
	in.Channels = 2
	var sw SlotWalker
	if ready := sw.Reset(in, []graph.NodeID{-1, 0, 0, 1}); len(ready) != 2 || ready[0] != 2 || ready[1] != 3 {
		t.Fatalf("Reset returned %v, want the leaves [2 3]", ready)
	}
	if err := sw.Begin(1); err != nil {
		t.Fatal(err)
	}
	if sw.MaySend(0) || sw.MaySend(1) {
		t.Fatal("the sink and a node with a pending child must not send")
	}
	b0, ok := sw.Join(nil, 3)
	if !ok {
		t.Fatal("a lone leaf must join")
	}
	if _, ok := sw.Join(b0, 2); ok {
		t.Fatal("2 collides with 3 at parent 1 on one channel")
	}
	if _, ok := sw.Join(nil, 2); !ok {
		t.Fatal("2 must join alone on the second channel")
	}
	if err := sw.Fire(0, []graph.NodeID{1}); err == nil || !strings.Contains(err.Error(), "children still pending") {
		t.Fatalf("err = %v, want precedence violation", err)
	}
	if ready := sw.End(); len(ready) != 1 || ready[0] != 1 || sw.Sent() != 2 {
		t.Fatalf("End left ready set %v with %d sent, want [1] and 2", ready, sw.Sent())
	}
	if err := sw.Begin(2); err != nil {
		t.Fatal(err)
	}
	if err := sw.Fire(0, []graph.NodeID{2}); err == nil || !strings.Contains(err.Error(), "transmits twice") {
		t.Fatalf("err = %v, want double transmission", err)
	}
}

// BenchmarkScheduleSync300 is a warm Scheduler cycling 16 sync paper
// deployments at n=300, K=1, graph oracle: the convergecast planning
// cost of one /v1/aggregate cache miss without HTTP or the service.
func BenchmarkScheduleSync300(b *testing.B) {
	ins := make([]core.Instance, 16)
	for i := range ins {
		d, err := topology.Generate(topology.PaperConfig(300), uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		ins[i] = core.Sync(d.G, d.Source)
	}
	var s Scheduler
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Schedule(ins[i%len(ins)]); err != nil {
			b.Fatal(err)
		}
	}
}
