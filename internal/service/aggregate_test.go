package service

import (
	"context"
	"sync"
	"testing"

	"mlbs/internal/sim"
)

func TestAggregateBasic(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ctx := context.Background()
	req := AggregateRequest{WorkloadRequest{Generator: &Generator{N: 80, Seed: 3}}}

	resp, err := s.Aggregate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHit {
		t.Fatal("first aggregation cannot be a cache hit")
	}
	if resp.Scheduler != "agg-spt" {
		t.Fatalf("scheduler = %q", resp.Scheduler)
	}
	if len(resp.Digest) != 64 {
		t.Fatalf("digest %q", resp.Digest)
	}
	in, err := s.resolve(req.WorkloadRequest)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Result.Schedule.Validate(in); err != nil {
		t.Fatalf("served aggregation schedule invalid: %v", err)
	}
	rep, err := sim.ReplayAggregate(in, resp.Result.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatalf("served schedule does not complete: %+v", rep)
	}

	again, err := s.Aggregate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatal("repeat aggregation missed the cache")
	}
	if again.Result != resp.Result {
		t.Fatal("cache hit returned a different result object")
	}

	// The aggregation digest must not alias the broadcast digest of the
	// same topology: the two workloads answer different questions.
	pr, err := s.Plan(ctx, WorkloadRequest{Generator: &Generator{N: 80, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Digest == resp.Digest {
		t.Fatal("aggregation digest aliases the broadcast digest")
	}

	m := s.Metrics()
	if m.Aggregates != 2 || m.AggSearches != 1 || m.AggregateHits != 1 || m.AggregateMisses != 1 {
		t.Fatalf("aggregation metrics = %+v", m)
	}
}

// TestAggregateSystems serves convergecast plans across the wake/channel/
// interference matrix the acceptance criterion names: sync and duty at
// K∈{1,4}, graph and SINR oracles, both tree policies.
func TestAggregateSystems(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		gen  Generator
		kind string
	}{
		{"sync/k1", Generator{N: 60, Seed: 1}, ""},
		{"sync/k4", Generator{N: 60, Seed: 1, Channels: 4}, ""},
		{"duty/k1", Generator{N: 60, Seed: 1, DutyRate: 5}, ""},
		{"duty/k4", Generator{N: 60, Seed: 1, DutyRate: 5, Channels: 4}, ""},
		{"sinr/k2", Generator{N: 60, Seed: 1, Channels: 2, SINRAlpha: 3, SINRBeta: 1}, ""},
		{"bounded", Generator{N: 60, Seed: 1}, "agg-bounded"},
	} {
		gen := tc.gen
		req := AggregateRequest{WorkloadRequest{Generator: &gen, Scheduler: tc.kind}}
		resp, err := s.Aggregate(ctx, req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		in, err := s.resolve(req.WorkloadRequest)
		if err != nil {
			t.Fatal(err)
		}
		if err := resp.Result.Schedule.Validate(in); err != nil {
			t.Fatalf("%s: invalid schedule: %v", tc.name, err)
		}
		if resp.Result.LatencySlots <= 0 {
			t.Fatalf("%s: latency %d", tc.name, resp.Result.LatencySlots)
		}
	}
	// The bounded tree is a different plan family: its entry must not
	// share the SPT cache slot.
	spt, err := s.Aggregate(ctx, AggregateRequest{WorkloadRequest{Generator: &Generator{N: 60, Seed: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	bounded, err := s.Aggregate(ctx, AggregateRequest{WorkloadRequest{Generator: &Generator{N: 60, Seed: 1}, Scheduler: "agg-bounded"}})
	if err != nil {
		t.Fatal(err)
	}
	if !spt.CacheHit || !bounded.CacheHit {
		t.Fatalf("matrix entries should be cached: spt=%v bounded=%v", spt.CacheHit, bounded.CacheHit)
	}
	if spt.Result == bounded.Result {
		t.Fatal("tree policies share one cache entry")
	}
}

// TestAggregateConcurrentCoalesces: concurrent identical requests run the
// scheduler exactly once.
func TestAggregateConcurrentCoalesces(t *testing.T) {
	s := New(Config{Workers: 4})
	defer s.Close()
	req := AggregateRequest{WorkloadRequest{Generator: &Generator{N: 100, Seed: 7}}}
	const goroutines = 16
	var wg sync.WaitGroup
	resps := make([]AggregateResponse, goroutines)
	errs := make([]error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = s.Aggregate(context.Background(), req)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	for i := 1; i < goroutines; i++ {
		if resps[i].Result != resps[0].Result {
			t.Fatalf("goroutine %d saw a different result object", i)
		}
	}
	if m := s.Metrics(); m.AggSearches != 1 {
		t.Fatalf("ran %d scheduler runs for %d identical requests, want 1", m.AggSearches, goroutines)
	}
}

func TestAggregateNoCacheRecomputesButStores(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	req := AggregateRequest{WorkloadRequest{Generator: &Generator{N: 60, Seed: 2}, NoCache: true}}
	for i := 0; i < 2; i++ {
		resp, err := s.Aggregate(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.CacheHit {
			t.Fatalf("request %d: NoCache request reported a hit", i)
		}
	}
	if m := s.Metrics(); m.AggSearches != 2 {
		t.Fatalf("scheduler runs = %d, want 2", m.AggSearches)
	}
	req.NoCache = false
	resp, err := s.Aggregate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.CacheHit {
		t.Fatal("NoCache results must still populate the cache")
	}
}

func TestAggregateRejectsBadRequests(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	cases := []AggregateRequest{
		{},
		{WorkloadRequest{Generator: &Generator{N: 40, Seed: 1}, Scheduler: "gopt"}},
		{WorkloadRequest{Generator: &Generator{N: 0, Seed: 1}}},
	}
	for i, req := range cases {
		if _, err := s.Aggregate(ctx, req); err == nil {
			t.Fatalf("case %d accepted: %+v", i, req)
		}
	}
	s.Close()
	if _, err := s.Aggregate(ctx, AggregateRequest{WorkloadRequest{Generator: &Generator{N: 10, Seed: 1}}}); err == nil {
		t.Fatal("aggregate after close succeeded")
	}
}

// TestAggregateStaysOutOfPlanLatency: the hit/miss histograms back the
// plan-only latency series, so convergecast requests must not land there.
func TestAggregateStaysOutOfPlanLatency(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ctx := context.Background()
	req := WorkloadRequest{Generator: &Generator{N: 80, Seed: 3}}
	const plans, aggs = 2, 3
	for i := 0; i < plans; i++ {
		if _, err := s.Plan(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < aggs; i++ {
		if _, err := s.Aggregate(ctx, AggregateRequest{req}); err != nil {
			t.Fatal(err)
		}
	}
	m := s.Metrics()
	if got := m.HitLatency.Count + m.MissLatency.Count; got != plans {
		t.Fatalf("plan latency histograms hold %d observations after %d plans and %d aggregates", got, plans, aggs)
	}
}
