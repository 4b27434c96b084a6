package service

import (
	"context"
	"runtime"
	"testing"

	"mlbs/internal/obs"
)

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestPlanCacheEntryBytes pins the live heap one cached plan costs — its
// key, its LRU entry and the packed plan — at ≤ 1 KB for the traced plans
// mlb-serve caches: cold duty-cycle plans (n 80/100, r=10, the default
// budget) and sync plans (n 150/300, budget 64). A *core.Result with its
// schedule and depth profile costs about 4 KB at these sizes. Requests
// ship explicit instances so the deployment cache stays empty, and the
// worker's engine arenas are warmed first so only cache entries grow.
func TestPlanCacheEntryBytes(t *testing.T) {
	const plans = 96
	for _, c := range []struct {
		name   string
		sizes  [2]int
		rate   int
		budget int
	}{
		{"duty r=10", [2]int{80, 100}, 10, 0},
		{"sync", [2]int{150, 300}, 0, 64},
	} {
		t.Run(c.name, func(t *testing.T) {
			svc := New(Config{Workers: 1, CacheCapacity: 4 * plans})
			defer svc.Close()
			seed := uint64(1)
			plan := func() {
				t.Helper()
				gen := Generator{N: c.sizes[seed%2], Seed: seed, DutyRate: c.rate}
				seed++
				in, err := gen.Instance()
				if err != nil {
					t.Fatal(err)
				}
				ctx := obs.NewContext(context.Background(), obs.NewTrace("/v1/plan"))
				resp, err := svc.Plan(ctx, WorkloadRequest{Instance: &in, Budget: c.budget})
				if err != nil {
					t.Fatal(err)
				}
				if resp.CacheHit || resp.Result.Stats.Depths == nil {
					t.Fatalf("plan %d: hit=%v, depth profile %v; want a traced cold search", seed, resp.CacheHit, resp.Result.Stats.Depths)
				}
			}
			for i := 0; i < 16; i++ {
				plan()
			}
			before, entries := liveHeap(), svc.cache.Len()
			for i := 0; i < plans; i++ {
				plan()
			}
			after := liveHeap()
			if got := svc.cache.Len() - entries; got != plans {
				t.Fatalf("cache grew by %d entries, want %d", got, plans)
			}
			per := (int64(after) - int64(before)) / plans
			t.Logf("%d B of live heap per cached plan", per)
			if per > 1024 {
				t.Errorf("a cached plan costs %d B of live heap, want ≤ 1024", per)
			}
		})
	}
}
