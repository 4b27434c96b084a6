package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mlbs/internal/dutycycle"
	"mlbs/internal/topology"
)

var updateGolden = flag.Bool("update", false, "rewrite golden schedule files")

// goldenCase identifies one (scheduler, system, size, budget, seed) cell
// of the golden matrix and pins what the search returned and how hard it
// worked for it: GOPT and OPT, synchronous and r=10 duty-cycle, over 10
// paper deployments of 100 nodes at the default budget, plus the budget-64
// sync G-OPT searches a cold serving request runs at n=150 and n=300.
type goldenCase struct {
	Scheduler string         `json:"scheduler"`
	Mode      string         `json:"mode"`
	N         int            `json:"n"`
	Budget    int            `json:"budget,omitempty"`
	Seed      uint64         `json:"seed"`
	PA        int            `json:"pa"`
	Exact     bool           `json:"exact"`
	Advances  []Advance      `json:"advances"`
	Counters  goldenCounters `json:"counters"`
}

// goldenCounters is the search effort behind a golden schedule: the
// Result's SearchStats and the per-depth profile's BoundPrunes and
// MemoHits summed over depths (from a ScheduleProfiled run). A change that
// claims to leave the search untouched must reproduce these exactly.
type goldenCounters struct {
	Expanded        int  `json:"expanded"`
	MemoHits        int  `json:"memo_hits"`
	MemoEntries     int  `json:"memo_entries"`
	BudgetExhausted bool `json:"budget_exhausted"`
	BoundPrunes     int  `json:"bound_prunes"`
	DepthMemoHits   int  `json:"depth_memo_hits"`
}

// goldenRows lists the matrix: scheduler, mode, node count, budget (0 for
// the default) and deployment seeds. The budget-64 rows add seeds whose
// search runs out of budget (n=150: 33, 34; n=300: 19, 29), so the
// truncated path is pinned too.
var goldenRows = []struct {
	scheduler, mode string
	n, budget       int
	seeds           []uint64
}{
	{"G-OPT", "sync", 100, 0, seedsUpTo(10)},
	{"G-OPT", "duty-r10", 100, 0, seedsUpTo(10)},
	{"OPT", "sync", 100, 0, seedsUpTo(10)},
	{"OPT", "duty-r10", 100, 0, seedsUpTo(10)},
	{"G-OPT", "sync", 150, 64, append(seedsUpTo(8), 33, 34)},
	{"G-OPT", "sync", 300, 64, append(seedsUpTo(8), 19, 29)},
}

// seedsUpTo returns the seeds 1..k.
func seedsUpTo(k uint64) []uint64 {
	var out []uint64
	for s := uint64(1); s <= k; s++ {
		out = append(out, s)
	}
	return out
}

func goldenInstance(t testing.TB, mode string, n int, seed uint64) Instance {
	t.Helper()
	dep, err := topology.Generate(topology.PaperConfig(n), seed)
	if err != nil {
		t.Fatalf("deployment n=%d seed %d: %v", n, seed, err)
	}
	switch mode {
	case "sync":
		return Sync(dep.G, dep.Source)
	case "duty-r10":
		return Async(dep.G, dep.Source, dutycycle.NewUniform(n, 10, seed, 0), 0)
	}
	t.Fatalf("unknown mode %q", mode)
	return Instance{}
}

func goldenScheduler(name string, budget int) *Search {
	if name == "OPT" {
		return NewOPT(budget, 0)
	}
	return NewGOPT(budget)
}

// TestGoldenSchedules locks GOPT and OPT output bit-for-bit across the
// allocation-free refactor: the stored schedules were produced by the
// pre-refactor map/string-key implementation, and every future change to
// the search core must keep reproducing them byte-identically. Each case
// also pins its search counters, so a change to the order of the search's
// work that claims bit-identity is checked here, not only by a benchmark.
func TestGoldenSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("golden matrix is slow; skipped with -short")
	}
	var cases []goldenCase
	for _, row := range goldenRows {
		for _, seed := range row.seeds {
			in := goldenInstance(t, row.mode, row.n, seed)
			search := goldenScheduler(row.scheduler, row.budget)
			res, err := search.Schedule(in)
			if err != nil {
				t.Fatalf("%s %s n=%d seed %d: %v", row.scheduler, row.mode, row.n, seed, err)
			}
			if err := res.Schedule.Validate(in); err != nil {
				t.Fatalf("%s %s n=%d seed %d produced invalid schedule: %v", row.scheduler, row.mode, row.n, seed, err)
			}
			prof, err := search.NewEngine().ScheduleProfiled(in)
			if err != nil {
				t.Fatalf("%s %s n=%d seed %d profiled: %v", row.scheduler, row.mode, row.n, seed, err)
			}
			c := goldenCase{
				Scheduler: row.scheduler,
				Mode:      row.mode,
				N:         row.n,
				Budget:    row.budget,
				Seed:      seed,
				PA:        res.PA,
				Exact:     res.Exact,
				Advances:  res.Schedule.Advances,
				Counters: goldenCounters{
					Expanded:        res.Stats.Expanded,
					MemoHits:        res.Stats.MemoHits,
					MemoEntries:     res.Stats.MemoEntries,
					BudgetExhausted: res.Stats.BudgetExhausted,
				},
			}
			for _, d := range prof.Stats.Depths {
				c.Counters.BoundPrunes += d.BoundPrunes
				c.Counters.DepthMemoHits += d.MemoHits
			}
			cases = append(cases, c)
		}
	}

	got, err := json.MarshalIndent(cases, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "golden_schedules.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cases)", path, len(cases))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		var wantCases []goldenCase
		if err := json.Unmarshal(want, &wantCases); err != nil {
			t.Fatalf("golden file corrupt: %v", err)
		}
		for i := range wantCases {
			if i >= len(cases) {
				break
			}
			if diff := describeCaseDiff(wantCases[i], cases[i]); diff != "" {
				t.Errorf("case %d (%s %s n=%d seed %d): %s",
					i, wantCases[i].Scheduler, wantCases[i].Mode, wantCases[i].N, wantCases[i].Seed, diff)
			}
		}
		t.Fatalf("schedules or search counters diverged from the golden output")
	}
}

func describeCaseDiff(want, got goldenCase) string {
	if want.PA != got.PA {
		return fmt.Sprintf("PA %d, want %d", got.PA, want.PA)
	}
	if want.Exact != got.Exact {
		return fmt.Sprintf("Exact %v, want %v", got.Exact, want.Exact)
	}
	if want.Counters != got.Counters {
		return fmt.Sprintf("search counters %+v, want %+v", got.Counters, want.Counters)
	}
	if len(want.Advances) != len(got.Advances) {
		return fmt.Sprintf("%d advances, want %d", len(got.Advances), len(want.Advances))
	}
	for ai := range want.Advances {
		w, g := want.Advances[ai], got.Advances[ai]
		if w.T != g.T || !equalIDs(w.Senders, g.Senders) || !equalIDs(w.Covered, g.Covered) {
			return fmt.Sprintf("advance %d: got {t=%d s=%v c=%v}, want {t=%d s=%v c=%v}",
				ai, g.T, g.Senders, g.Covered, w.T, w.Senders, w.Covered)
		}
	}
	return ""
}

func equalIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
