package sim

import (
	"reflect"
	"testing"

	"mlbs/internal/core"
	"mlbs/internal/graph"
	"mlbs/internal/rng"
	"mlbs/internal/topology"
)

// TestWarmLossyReplayAllocs pins the replayer refactor's core property:
// once a LossyReplayer's buffers are warm, a full lossy replay of the
// n=300 paper topology allocates nothing — the per-slot heard/tx maps of
// the old implementation (several allocations per slot) are gone. The
// Monte-Carlo engine batches thousands of replays on this ceiling.
func TestWarmLossyReplayAllocs(t *testing.T) {
	d, err := topology.Generate(topology.PaperConfig(300), 2)
	if err != nil {
		t.Fatal(err)
	}
	in := core.Sync(d.G, d.Source)
	res, err := core.NewEModel().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	loss := IIDLoss(0.05, 7)
	rep := NewLossyReplayer()
	for i := 0; i < 3; i++ { // warm-up: grows arenas, collision buffers
		if _, err := rep.ReplayValidated(in, res.Schedule, loss); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := rep.ReplayValidated(in, res.Schedule, loss); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("warm lossy replay allocated %.1f objects per replay; want ≤ 2", allocs)
	}
}

// TestWarmIdealReplayAllocs bounds the ideal path too: the only remaining
// per-call cost is Instance.Validate's connectivity BFS.
func TestWarmIdealReplayAllocs(t *testing.T) {
	d, err := topology.Generate(topology.PaperConfig(300), 2)
	if err != nil {
		t.Fatal(err)
	}
	in := core.Sync(d.G, d.Source)
	res, err := core.NewEModel().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReplayer()
	if _, err := rep.Replay(in, res.Schedule); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := rep.Replay(in, res.Schedule); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Errorf("warm ideal replay allocated %.1f objects per replay; want ≤ 16", allocs)
	}
}

// TestReplayerMatchesOneShot checks the reusable replayer against the
// package-level one-shot functions, including reuse across instances of
// different sizes in both directions.
func TestReplayerMatchesOneShot(t *testing.T) {
	rep := NewReplayer()
	lrep := NewLossyReplayer()
	for _, cfg := range []struct {
		n    int
		seed uint64
	}{{120, 3}, {40, 5}, {200, 1}} {
		d, err := topology.Generate(topology.PaperConfig(cfg.n), cfg.seed)
		if err != nil {
			t.Fatal(err)
		}
		in := core.Sync(d.G, d.Source)
		res, err := core.NewEModel().Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Replay(in, res.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rep.Replay(in, res.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: reused replayer diverged from one-shot:\n got %+v\nwant %+v", cfg.n, got, want)
		}
		loss := IIDLoss(0.1, cfg.seed)
		lwant, err := ReplayLossy(in, res.Schedule, loss)
		if err != nil {
			t.Fatal(err)
		}
		lgot, err := lrep.Replay(in, res.Schedule, loss)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lgot, lwant) {
			t.Fatalf("n=%d: reused lossy replayer diverged from one-shot", cfg.n)
		}
	}
}

// TestLossyReplayDeterministicUnderSenderOrder pins the simulator's
// order-independence contract: shuffling the sender list inside each
// advance must produce the identical LossyReport — coverage slots,
// collision records (receiver and sorted senders), usage tallies, and
// the dropped-frame count all match.
func TestLossyReplayDeterministicUnderSenderOrder(t *testing.T) {
	d, err := topology.Generate(topology.PaperConfig(150), 8)
	if err != nil {
		t.Fatal(err)
	}
	in := core.Sync(d.G, d.Source)
	res, err := core.NewEModel().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	loss := IIDLoss(0.15, 4)
	base, err := ReplayLossy(in, res.Schedule, loss)
	if err != nil {
		t.Fatal(err)
	}
	baseCopy := cloneLossyReport(base)
	src := rng.New(99)
	for trial := 0; trial < 5; trial++ {
		shuffled := &core.Schedule{Source: res.Schedule.Source, Start: res.Schedule.Start}
		for _, adv := range res.Schedule.Advances {
			senders := append([]graph.NodeID(nil), adv.Senders...)
			src.Shuffle(len(senders), func(i, j int) { senders[i], senders[j] = senders[j], senders[i] })
			shuffled.Advances = append(shuffled.Advances, core.Advance{T: adv.T, Senders: senders, Covered: adv.Covered})
		}
		got, err := ReplayLossy(in, shuffled, loss)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cloneLossyReport(got), baseCopy) {
			t.Fatalf("trial %d: shuffled sender order changed the report\n got %+v\nwant %+v", trial, got, baseCopy)
		}
	}
}

// cloneLossyReport deep-copies a report so comparisons survive replayer
// buffer reuse.
func cloneLossyReport(r *LossyReport) *LossyReport {
	cp := *r
	cp.CoveredAt = append([]int(nil), r.CoveredAt...)
	cp.Collisions = nil
	for _, c := range r.Collisions {
		cp.Collisions = append(cp.Collisions, Collision{
			T: c.T, Receiver: c.Receiver, Senders: append([]graph.NodeID(nil), c.Senders...),
		})
	}
	return &cp
}

func BenchmarkLossyReplayerReplay300(b *testing.B) {
	d, err := topology.Generate(topology.PaperConfig(300), 2)
	if err != nil {
		b.Fatal(err)
	}
	in := core.Sync(d.G, d.Source)
	res, err := core.NewEModel().Schedule(in)
	if err != nil {
		b.Fatal(err)
	}
	if err := in.Validate(); err != nil {
		b.Fatal(err)
	}
	loss := IIDLoss(0.05, 7)
	rep := NewLossyReplayer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rep.ReplayValidated(in, res.Schedule, loss); err != nil {
			b.Fatal(err)
		}
	}
}
