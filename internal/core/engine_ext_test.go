package core_test

import (
	"bytes"
	"reflect"
	"testing"

	"mlbs/internal/core"
	"mlbs/internal/dutycycle"
	"mlbs/internal/graphio"
	"mlbs/internal/topology"
)

// TestEngineMatchesSearch pins the reusable engine's contract: a single
// Engine driven across many instances — different sizes, seeds, and wake
// systems, in an order that forces arena re-binding — returns exactly what
// a fresh Search returns for each: the same encoded result, advance for
// advance, and the same search statistics. The sizes step across bitset
// word counts (64 → 65 → 130 → 60) and then alternate 150 ↔ 300, as a
// serving worker's engine does under cold sync traffic.
func TestEngineMatchesSearch(t *testing.T) {
	en := core.NewGOPT(0).NewEngine()
	for _, tc := range []struct {
		n    int
		seed uint64
		r    int
	}{
		{60, 1, 0}, {100, 2, 0}, {60, 3, 5}, {100, 2, 0}, {60, 1, 0},
		{64, 4, 0}, {65, 5, 0}, {130, 6, 0}, {60, 7, 0}, {65, 8, 5},
		{150, 9, 0}, {300, 10, 0}, {150, 11, 0}, {300, 12, 0},
	} {
		dep, err := topology.Generate(topology.PaperConfig(tc.n), tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		var in core.Instance
		if tc.r > 1 {
			in = core.Async(dep.G, dep.Source, dutycycle.NewUniform(tc.n, tc.r, tc.seed^0xA5, 0), 0)
		} else {
			in = core.Sync(dep.G, dep.Source)
		}
		want, err := core.NewGOPT(0).Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := en.Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := graphio.EncodeResult(want)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := graphio.EncodeResult(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("n=%d seed=%d r=%d: engine result differs from a fresh search:\nengine %s\nsearch %s",
				tc.n, tc.seed, tc.r, gotJSON, wantJSON)
		}
		if !reflect.DeepEqual(got.Stats, want.Stats) {
			t.Errorf("n=%d seed=%d r=%d: engine stats %+v, search stats %+v",
				tc.n, tc.seed, tc.r, got.Stats, want.Stats)
		}
		if err := got.Schedule.Validate(in); err != nil {
			t.Errorf("n=%d seed=%d r=%d: engine schedule invalid: %v", tc.n, tc.seed, tc.r, err)
		}
	}
}
