package core_test

import (
	"bytes"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"mlbs/internal/core"
	"mlbs/internal/graph"
	"mlbs/internal/graphio"
)

// randomIDs returns a nil, empty, sorted or unsorted ID list.
func randomIDs(rng *rand.Rand) []graph.NodeID {
	switch rng.IntN(6) {
	case 0:
		return nil
	case 1:
		return []graph.NodeID{}
	}
	ids := make([]graph.NodeID, 1+rng.IntN(12))
	id := 0
	for k := range ids {
		id += 1 + rng.IntN(200)
		ids[k] = id
	}
	if rng.IntN(3) == 0 {
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	}
	return ids
}

// randomResult draws a Result over every shape the packed form must keep:
// channelized advances, single-node schedules (no advances, End =
// Start−1), nil versus empty slices, the search flags and the improver's
// provenance.
func randomResult(rng *rand.Rand) *core.Result {
	s := &core.Schedule{Source: rng.IntN(600), Start: rng.IntN(50)}
	switch rng.IntN(5) {
	case 0: // single-node network: no advances at all
	case 1:
		s.Advances = []core.Advance{}
	default:
		t := s.Start
		k := 1 + rng.IntN(4)
		for i := 0; i < 1+rng.IntN(20); i++ {
			t += 1 + rng.IntN(12)
			for ch := 0; ch < k && rng.IntN(2) == 0; ch++ {
				s.Advances = append(s.Advances, core.Advance{T: t, Channel: ch, Senders: randomIDs(rng), Covered: randomIDs(rng)})
			}
		}
	}
	res := &core.Result{
		Scheduler:  []string{"G-OPT", "OPT", "E-model", "improved"}[rng.IntN(4)],
		Schedule:   s,
		PA:         s.End(),
		Exact:      rng.IntN(2) == 0,
		Generation: rng.IntN(3),
		Improved:   rng.IntN(2) == 0,
		Stats: core.SearchStats{
			Expanded:        rng.IntN(100000),
			MemoHits:        rng.IntN(1000),
			MemoEntries:     rng.IntN(1000),
			MovesCapped:     rng.IntN(4) == 0,
			BudgetExhausted: rng.IntN(4) == 0,
		},
	}
	switch rng.IntN(3) {
	case 1:
		res.Stats.Depths = []core.DepthStats{}
	case 2:
		for i := 0; i < 1+rng.IntN(30); i++ {
			res.Stats.Depths = append(res.Stats.Depths, core.DepthStats{
				Expanded: rng.IntN(5000), MemoHits: rng.IntN(50), BoundPrunes: rng.IntN(50), BudgetCuts: rng.IntN(3),
			})
		}
	}
	return res
}

// checkRoundTrip packs res and asserts the materialized Result is deeply
// equal and encodes to the same wire bytes.
func checkRoundTrip(t *testing.T, res *core.Result) {
	t.Helper()
	p := core.Pack(res)
	got := p.Result()
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("round trip changed the result:\n got %+v %+v\nwant %+v %+v", got, got.Schedule, res, res.Schedule)
	}
	if p.Scheduler != res.Scheduler || p.PA != res.PA || p.End != res.Schedule.End() ||
		p.Exact != res.Exact || p.Generation != res.Generation || p.Improved != res.Improved {
		t.Fatalf("header %+v disagrees with %+v", p, res)
	}
	want, err := graphio.EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := graphio.EncodeResult(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, want) {
		t.Fatalf("wire bytes differ:\n got %s\nwant %s", enc, want)
	}
}

func TestPackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 2012))
	for trial := 0; trial < 500; trial++ {
		checkRoundTrip(t, randomResult(rng))
	}

	// Values far outside anything a schedule holds — negative and extreme
	// IDs, slots and counters whose deltas overflow — must come back
	// exactly rather than truncated to some narrower width.
	extreme := &core.Result{
		Scheduler: "x",
		Schedule: &core.Schedule{Source: math.MinInt, Start: math.MaxInt, Advances: []core.Advance{
			{T: math.MinInt, Channel: math.MaxInt, Senders: []graph.NodeID{math.MaxInt, math.MinInt, -1, 0}, Covered: []graph.NodeID{1 << 40}},
			{T: math.MaxInt, Channel: -7, Senders: []graph.NodeID{math.MinInt}, Covered: nil},
		}},
		PA:         math.MinInt,
		Generation: math.MaxInt,
		Stats: core.SearchStats{Expanded: math.MaxInt, MemoHits: -1, MemoEntries: math.MinInt,
			Depths: []core.DepthStats{{Expanded: math.MaxInt, MemoHits: math.MinInt, BoundPrunes: -3, BudgetCuts: 1 << 50}}},
	}
	if got := core.Pack(extreme); !reflect.DeepEqual(got.Result(), extreme) {
		t.Fatalf("extreme values did not round-trip: %+v", got.Result().Schedule)
	}

	// Each Result call is a fresh value: mutating one read leaves the next
	// intact.
	res := randomResult(rng)
	for len(res.Schedule.Advances) == 0 || len(res.Schedule.Advances[0].Senders) == 0 {
		res = randomResult(rng)
	}
	p := core.Pack(res)
	first := p.Result()
	first.Schedule.Advances[0].Senders[0] = -99
	first.Schedule.Advances = append(first.Schedule.Advances, core.Advance{})
	if !reflect.DeepEqual(p.Result(), res) {
		t.Fatal("mutating one materialized result changed the next")
	}
}

// TestPackResultAllocs pins Result at the Result+Schedule block, the
// advances and the ID slab, plus the depth profile when there is one.
func TestPackResultAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	res := randomResult(rng)
	for len(res.Schedule.Advances) == 0 {
		res = randomResult(rng)
	}
	for _, c := range []struct {
		depths []core.DepthStats
		max    float64
	}{{nil, 3}, {[]core.DepthStats{{Expanded: 4}, {Expanded: 2}}, 4}} {
		res.Stats.Depths = c.depths
		p := core.Pack(res)
		if allocs := testing.AllocsPerRun(100, func() { _ = p.Result() }); allocs > c.max {
			t.Errorf("Result with %d depths: %.1f allocations, want ≤ %.0f", len(c.depths), allocs, c.max)
		}
	}
}
