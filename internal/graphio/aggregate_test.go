package graphio

import (
	"reflect"
	"strings"
	"testing"

	"mlbs/internal/aggregate"
	"mlbs/internal/core"
	"mlbs/internal/graph"
)

// sampleAggSchedule is a small fixed convergecast plan: path 3→2→1→0 plus
// a channel-1 bundle, exercising the parent array and the channel column.
func sampleAggSchedule() *aggregate.Schedule {
	return &aggregate.Schedule{
		Sink:   0,
		Start:  1,
		Parent: []graph.NodeID{-1, 0, 1, 2, 1},
		Advances: []aggregate.Advance{
			{T: 1, Channel: 0, Senders: []graph.NodeID{3}},
			{T: 1, Channel: 1, Senders: []graph.NodeID{4}},
			{T: 2, Channel: 0, Senders: []graph.NodeID{2}},
			{T: 3, Channel: 0, Senders: []graph.NodeID{1}},
		},
	}
}

func TestAggScheduleRoundTrip(t *testing.T) {
	s := sampleAggSchedule()
	data, err := EncodeAggSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeAggSchedule(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, s)
	}
	again, err := EncodeAggSchedule(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Fatal("re-encoding is not byte-stable")
	}
}

// TestAggScheduleSingleChannelOmitsColumn pins the minimal single-channel
// form: no channel column, so K=1 plans stay as small as broadcast's.
func TestAggScheduleSingleChannelOmitsColumn(t *testing.T) {
	s := &aggregate.Schedule{Sink: 0, Start: 1, Parent: []graph.NodeID{-1, 0}, Advances: []aggregate.Advance{
		{T: 1, Senders: []graph.NodeID{1}},
	}}
	data, err := EncodeAggSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"channel"`) {
		t.Fatalf("single-channel encoding carries a channel column:\n%s", data)
	}
	got, err := DecodeAggSchedule(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip diverged: %+v", got)
	}
}

// TestAggScheduleSchemaGolden pins the wire schema byte-for-byte: renaming
// or reordering fields changes archived plans and cache payloads and must
// be a conscious, version-bumped decision.
func TestAggScheduleSchemaGolden(t *testing.T) {
	data, err := EncodeAggSchedule(sampleAggSchedule())
	if err != nil {
		t.Fatal(err)
	}
	const golden = `{
 "version": 1,
 "sink": 0,
 "start": 1,
 "parent": [
  -1,
  0,
  1,
  2,
  1
 ],
 "t": [
  1,
  1,
  2,
  3
 ],
 "senders": [
  [
   3
  ],
  [
   4
  ],
  [
   2
  ],
  [
   1
  ]
 ],
 "channel": [
  0,
  1,
  0,
  0
 ]
}`
	if strings.TrimSpace(string(data)) != golden {
		t.Fatalf("aggregation schedule schema drifted:\n%s", data)
	}
}

func TestAggResultRoundTrip(t *testing.T) {
	res := &aggregate.Result{Scheduler: "agg-spt", Schedule: sampleAggSchedule(), LatencySlots: 3}
	data, err := EncodeAggResult(res)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeAggResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, res)
	}
}

func TestAggScheduleRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"not json", `{nope`},
		{"bad version", `{"version":9,"sink":0,"start":1,"parent":[-1],"t":[],"senders":[]}`},
		{"length mismatch", `{"version":1,"sink":0,"start":1,"parent":[-1,0],"t":[1],"senders":[]}`},
		{"channel mismatch", `{"version":1,"sink":0,"start":1,"parent":[-1,0],"t":[1],"senders":[[1]],"channel":[0,0]}`},
		{"no nodes", `{"version":1,"sink":0,"start":1,"parent":[],"t":[],"senders":[]}`},
		{"sink out of range", `{"version":1,"sink":5,"start":1,"parent":[-1,0],"t":[],"senders":[]}`},
		{"parent out of range", `{"version":1,"sink":0,"start":1,"parent":[-1,7],"t":[],"senders":[]}`},
		{"sender out of range", `{"version":1,"sink":0,"start":1,"parent":[-1,0],"t":[1],"senders":[[9]]}`},
		{"channel out of range", `{"version":1,"sink":0,"start":1,"parent":[-1,0],"t":[1],"senders":[[1]],"channel":[999]}`},
	}
	for _, tc := range cases {
		if _, err := DecodeAggSchedule([]byte(tc.data)); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
	if _, err := EncodeAggSchedule(nil); err == nil {
		t.Fatal("nil schedule accepted")
	}
	if _, err := EncodeAggResult(nil); err == nil {
		t.Fatal("nil result accepted")
	}
}

// TestAggDigestTag pins the digest-tagging contract: the aggregation
// digest of an instance differs from its broadcast digest (no cache
// aliasing between workloads) while staying deterministic.
func TestAggDigestTag(t *testing.T) {
	in := figureInstance()
	base, err := InstanceDigest(in)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := AggInstanceDigest(in)
	if err != nil {
		t.Fatal(err)
	}
	if agg == base {
		t.Fatal("aggregation digest aliases the broadcast digest")
	}
	again, err := AggInstanceDigest(in)
	if err != nil {
		t.Fatal(err)
	}
	if agg != again {
		t.Fatal("aggregation digest not deterministic")
	}
	if _, err := AggInstanceDigest(core.Instance{}); err == nil {
		t.Fatal("nil-graph instance digested")
	}
}

// TestInstanceDigestsOnePass pins the one-pass digest pair against the
// two digests computed separately: the broadcast digest, and the "agg"
// tag appended to a fresh stream that was never finalized before it.
func TestInstanceDigestsOnePass(t *testing.T) {
	for _, in := range []core.Instance{figureInstance(), channelizedInstance(4)} {
		base, agg, err := InstanceDigests(in)
		if err != nil {
			t.Fatal(err)
		}
		wantBase, err := InstanceDigest(in)
		if err != nil {
			t.Fatal(err)
		}
		w, err := instanceDigestWriter(in)
		if err != nil {
			t.Fatal(err)
		}
		w.S("agg")
		if base != wantBase || agg != w.Sum() {
			t.Fatalf("one-pass digests (%s, %s) differ from separate ones (%s, %s)", base, agg, wantBase, w.Sum())
		}
	}
	if _, _, err := InstanceDigests(core.Instance{}); err == nil {
		t.Fatal("nil-graph instance digested")
	}
}
