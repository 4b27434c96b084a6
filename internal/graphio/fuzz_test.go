package graphio

import (
	"bytes"
	"testing"

	"mlbs/internal/aggregate"
	"mlbs/internal/core"
	"mlbs/internal/dutycycle"
	"mlbs/internal/graph"
	"mlbs/internal/reliability"
	"mlbs/internal/sim"
)

// The graphio fuzz contract, shared by every decoder: arbitrary bytes
// must never panic (reject with an error instead), and any input the
// decoder accepts must re-encode canonically — Encode(Decode(x)) followed
// by a second Decode/Encode cycle is byte-identical, so accepted values
// round-trip and the wire form is a fixed point.

// seedInstances returns valid encodings to seed the corpus: one per wake
// family, plus a small abstract (edge-list) instance.
func seedInstances(f *testing.F) [][]byte {
	f.Helper()
	ins := []core.Instance{
		figureInstance(),
		{G: figureInstance().G, Source: 1, Start: 3,
			Wake: dutycycle.NewUniform(4, 3, 99, 8)},
		{G: figureInstance().G, Source: 0, Start: 0,
			Wake: dutycycle.NewPeriodicPhase(3, []int{0, 1, 2, 1})},
		{G: figureInstance().G, Source: 2, Start: 1,
			Wake: dutycycle.AlwaysAwake{Nodes: 4}, PreCovered: []int{0, 3}},
		{G: figureInstance().G, Source: 0, Start: 1,
			Wake: dutycycle.AlwaysAwake{Nodes: 4}, Channels: 4},
	}
	var out [][]byte
	for _, in := range ins {
		data, err := EncodeInstance(in)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

func FuzzDecodeInstance(f *testing.F) {
	for _, data := range seedInstances(f) {
		f.Add(data)
	}
	f.Add([]byte(`{"version":1,"nodes":2,"edge_u":[0],"edge_v":[1],"source":0,"wake":{"kind":"always","nodes":2}}`))
	f.Add([]byte(`{"version":1,"nodes":-5}`))
	f.Add([]byte(`{"version":1,"nodes":999999999,"wake":{"kind":"uniform","nodes":999999999,"rate":2,"cycles":2}}`))
	f.Add([]byte(`{"version":1,"nodes":1,"x":[0],"y":[0],"wake":{"kind":"fixed","nodes":1,"rate":1,"period":4,"slots":[[3,1]]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := DecodeInstance(data)
		if err != nil {
			return
		}
		// Accepted instances are valid by contract...
		if err := in.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid instance: %v", err)
		}
		// ...and round-trip: same digest, byte-identical canonical form.
		enc, err := EncodeInstance(in)
		if err != nil {
			t.Fatalf("accepted instance does not re-encode: %v", err)
		}
		in2, err := DecodeInstance(enc)
		if err != nil {
			t.Fatalf("canonical form does not decode: %v", err)
		}
		d1, err := InstanceDigest(in)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := InstanceDigest(in2)
		if err != nil {
			t.Fatal(err)
		}
		if d1 != d2 {
			t.Fatalf("round trip changed the digest: %s → %s", d1, d2)
		}
		enc2, err := EncodeInstance(in2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("canonical form is not a fixed point:\n%s\nvs\n%s", enc, enc2)
		}
	})
}

func FuzzDecodeResult(f *testing.F) {
	res := &core.Result{
		Scheduler: "gopt",
		Schedule: &core.Schedule{Source: 0, Start: 1, Advances: []core.Advance{
			{T: 1, Senders: []int{0}, Covered: []int{1, 3}},
			{T: 2, Senders: []int{1, 3}, Covered: []int{2}},
		}},
		PA: 2, Exact: true,
		Stats: core.SearchStats{Expanded: 7, MemoHits: 2, MemoEntries: 5},
	}
	data, err := EncodeResult(res)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	chRes, err := EncodeResult(&core.Result{
		Scheduler: "gopt",
		Schedule: &core.Schedule{Source: 0, Start: 1, Advances: []core.Advance{
			{T: 1, Senders: []int{0}, Covered: []int{1, 2}},
			{T: 2, Channel: 0, Senders: []int{1}, Covered: []int{3}},
			{T: 2, Channel: 1, Senders: []int{2}, Covered: []int{4}},
		}},
		PA: 2,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(chRes)
	f.Add([]byte(`{"version":1,"scheduler":"x","schedule":{"t":[1],"senders":[[0]],"covered":[[1]]}}`))
	f.Add([]byte(`{"version":1,"schedule":{"t":[1,2],"senders":[[0]],"covered":[[1]]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := DecodeResult(data)
		if err != nil {
			return
		}
		enc, err := EncodeResult(res)
		if err != nil {
			t.Fatalf("accepted result does not re-encode: %v", err)
		}
		res2, err := DecodeResult(enc)
		if err != nil {
			t.Fatalf("canonical form does not decode: %v", err)
		}
		enc2, err := EncodeResult(res2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("canonical form is not a fixed point:\n%s\nvs\n%s", enc, enc2)
		}
	})
}

func FuzzDecodeReliabilityReport(f *testing.F) {
	rep := &reliability.Report{
		Trials:            4,
		Loss:              reliability.LossModel{Kind: "iid", Rate: 0.25, Seed: 7},
		ScheduleLatency:   6,
		MeanDeliveryRatio: 0.9375,
		FullCoverageRate:  0.75,
		DeliveredTrials:   3,
		NodeCovered:       []int{4, 4, 3, 4},
	}
	data, err := EncodeReliabilityReport(rep)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{"version":1,"report":{"trials":1,"node_covered":[1]}}`))
	f.Add([]byte(`{"version":1,"report":{"trials":-1}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := DecodeReliabilityReport(data)
		if err != nil {
			return
		}
		enc, err := EncodeReliabilityReport(rep)
		if err != nil {
			t.Fatalf("accepted report does not re-encode: %v", err)
		}
		rep2, err := DecodeReliabilityReport(enc)
		if err != nil {
			t.Fatalf("canonical form does not decode: %v", err)
		}
		enc2, err := EncodeReliabilityReport(rep2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("canonical form is not a fixed point:\n%s\nvs\n%s", enc, enc2)
		}
	})
}

func FuzzDecodeSchedule(f *testing.F) {
	s := &core.Schedule{Source: 0, Start: 1, Advances: []core.Advance{
		{T: 1, Senders: []int{0}, Covered: []int{1}},
	}}
	data, err := EncodeSchedule(s)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	// A channelized schedule: two advances sharing slot 2 on channels 0/1.
	chData, err := EncodeSchedule(&core.Schedule{Source: 0, Start: 1, Advances: []core.Advance{
		{T: 1, Senders: []int{0}, Covered: []int{1, 2}},
		{T: 2, Channel: 0, Senders: []int{1}, Covered: []int{3}},
		{T: 2, Channel: 1, Senders: []int{2}, Covered: []int{4}},
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(chData)
	f.Add([]byte(`{"version":1,"t":[2,1],"senders":[[0],[1]],"covered":[[1],[0]]}`))
	f.Add([]byte(`{"version":1,"t":[1],"senders":[[0]],"covered":[[1]],"channel":[-3]}`))
	f.Add([]byte(`{"version":1,"t":[1,2],"senders":[[0],[1]],"covered":[[1],[2]],"channel":[1]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSchedule(data)
		if err != nil {
			return
		}
		enc, err := EncodeSchedule(s)
		if err != nil {
			t.Fatalf("accepted schedule does not re-encode: %v", err)
		}
		s2, err := DecodeSchedule(enc)
		if err != nil {
			t.Fatalf("canonical form does not decode: %v", err)
		}
		enc2, err := EncodeSchedule(s2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("canonical form is not a fixed point:\n%s\nvs\n%s", enc, enc2)
		}
	})
}

func FuzzDecodeDeployment(f *testing.F) {
	f.Add([]byte(`{"version":1,"seed":3,"radius":10,"area_side":50,"source":0,"source_ecc":1,` +
		`"x":[1,5],"y":[1,5]}`))
	f.Add([]byte(`{"version":1,"radius":-1,"x":[0],"y":[0]}`))
	f.Add([]byte(`{"version":1,"radius":10,"source":5,"x":[0],"y":[0]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeDeployment(data)
		if err != nil {
			return
		}
		enc, err := EncodeDeployment(d)
		if err != nil {
			t.Fatalf("accepted deployment does not re-encode: %v", err)
		}
		d2, err := DecodeDeployment(enc)
		if err != nil {
			t.Fatalf("canonical form does not decode: %v", err)
		}
		enc2, err := EncodeDeployment(d2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("canonical form is not a fixed point:\n%s\nvs\n%s", enc, enc2)
		}
	})
}

// FuzzDecodeAggSchedule adds to the decoder contract a check of what the
// decoded plan does on a fixed five-node instance (the tree of
// sampleAggSchedule, K=2): Validate and ReplayAggregate never panic on
// it, and a schedule Validate accepts replays every reading to the sink
// with no collision.
func FuzzDecodeAggSchedule(f *testing.F) {
	g := graph.NewBuilder(5, nil).AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 3).AddEdge(1, 4).Build()
	in := core.Sync(g, 0)
	in.Channels = 2
	var sched aggregate.Scheduler
	res, err := sched.Schedule(in)
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range []*aggregate.Schedule{res.Schedule, sampleAggSchedule()} {
		data, err := EncodeAggSchedule(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"version":1,"sink":0,"start":1,"parent":[-1,0,1,2,1],"t":[1,1],"senders":[[3,4],[2]],"channel":[1,0]}`))
	f.Add([]byte(`{"version":1,"sink":0,"start":1,"parent":[-1,0,1,2,1],"t":[2,1],"senders":[[3],[]]}`))
	f.Add([]byte(`{"version":1,"sink":4,"start":0,"parent":[1,4,1,2,-1],"t":[1],"senders":[[0,0]]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeAggSchedule(data)
		if err != nil {
			return
		}
		enc, err := EncodeAggSchedule(s)
		if err != nil {
			t.Fatalf("accepted schedule does not re-encode: %v", err)
		}
		s2, err := DecodeAggSchedule(enc)
		if err != nil {
			t.Fatalf("canonical form does not decode: %v", err)
		}
		enc2, err := EncodeAggSchedule(s2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("canonical form is not a fixed point:\n%s\nvs\n%s", enc, enc2)
		}
		verr := s.Validate(in)
		rep, rerr := sim.ReplayAggregate(in, s)
		if verr != nil {
			return
		}
		if rerr != nil {
			t.Fatalf("accepted schedule does not replay: %v", rerr)
		}
		if !rep.Completed || len(rep.Collisions) != 0 {
			t.Fatalf("accepted schedule replays completed=%v with collisions %+v", rep.Completed, rep.Collisions)
		}
	})
}
