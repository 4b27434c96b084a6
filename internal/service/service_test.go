package service

import (
	"context"
	"sync"
	"testing"
	"time"

	"mlbs/internal/core"
	"mlbs/internal/topology"
)

func testInstance(t *testing.T, n int, seed uint64) *core.Instance {
	t.Helper()
	dep, err := topology.Generate(topology.PaperConfig(n), seed)
	if err != nil {
		t.Fatal(err)
	}
	in := core.Sync(dep.G, dep.Source)
	return &in
}

// TestConcurrentSameInstance is the serving layer's headline property: 64
// goroutines planning the same instance agree on P(A) and trigger exactly
// one underlying search — everyone else hits the cache or coalesces onto
// the in-flight leader. Run under -race in CI.
func TestConcurrentSameInstance(t *testing.T) {
	svc := New(Config{Workers: 4})
	defer svc.Close()
	in := testInstance(t, 100, 7)

	const clients = 64
	var wg sync.WaitGroup
	resps := make([]Response, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = svc.Plan(context.Background(), WorkloadRequest{Instance: in})
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	pa := resps[0].Result.PA
	digest := resps[0].Digest
	leaders := 0
	for i, r := range resps {
		if r.Result.PA != pa {
			t.Errorf("client %d got PA=%d, client 0 got %d", i, r.Result.PA, pa)
		}
		if r.Digest != digest {
			t.Errorf("client %d digest %s ≠ %s", i, r.Digest, digest)
		}
		if !r.CacheHit && !r.Coalesced {
			leaders++
		}
	}
	m := svc.Metrics()
	if m.Searches != 1 {
		t.Errorf("ran %d searches for %d identical requests; singleflight wants 1", m.Searches, clients)
	}
	if leaders != 1 {
		t.Errorf("%d leaders; want 1", leaders)
	}
	if m.Hits+m.Coalesced != clients-1 {
		t.Errorf("hits=%d coalesced=%d; %d followers expected", m.Hits, m.Coalesced, clients-1)
	}
	if m.Requests != clients {
		t.Errorf("requests=%d want %d", m.Requests, clients)
	}
}

// TestWarmHitPathAllocs pins the acceptance criterion that the warm-cache
// path is search-free and allocation-bounded: a steady-state Plan for a
// resident instance costs only the digest (one SHA-256) plus the key
// string and the response — no engine, no frames, no schedule rebuild.
func TestWarmHitPathAllocs(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	in := testInstance(t, 100, 7)
	req := WorkloadRequest{Instance: in}
	ctx := context.Background()
	if _, err := svc.Plan(ctx, req); err != nil {
		t.Fatal(err)
	}
	before := svc.Metrics().Searches
	allocs := testing.AllocsPerRun(100, func() {
		resp, err := svc.Plan(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.CacheHit {
			t.Fatal("warm request missed the cache")
		}
	})
	if svc.Metrics().Searches != before {
		t.Fatal("warm requests re-ran the search")
	}
	if allocs > 24 {
		t.Errorf("warm Plan allocated %.1f objects per call; want ≤ 24", allocs)
	}
}

func TestDistinctInstancesDistinctPlans(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	ctx := context.Background()
	r1, err := svc.Plan(ctx, WorkloadRequest{Instance: testInstance(t, 80, 1)})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := svc.Plan(ctx, WorkloadRequest{Instance: testInstance(t, 80, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Digest == r2.Digest {
		t.Fatal("different deployments share a digest")
	}
	if m := svc.Metrics(); m.Searches != 2 {
		t.Errorf("searches=%d want 2", m.Searches)
	}
}

func TestSchedulerPartOfKey(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	ctx := context.Background()
	in := testInstance(t, 80, 3)
	g, err := svc.Plan(ctx, WorkloadRequest{Instance: in, Scheduler: "gopt"})
	if err != nil {
		t.Fatal(err)
	}
	e, err := svc.Plan(ctx, WorkloadRequest{Instance: in, Scheduler: "emodel"})
	if err != nil {
		t.Fatal(err)
	}
	if e.CacheHit {
		t.Fatal("emodel request hit the gopt entry: scheduler missing from the key")
	}
	if g.Result.Scheduler == e.Result.Scheduler {
		t.Fatalf("both requests served by %q", g.Result.Scheduler)
	}
}

func TestGeneratorRequests(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	ctx := context.Background()
	gen := &Generator{N: 80, Seed: 5, DutyRate: 10}
	r1, err := svc.Plan(ctx, WorkloadRequest{Generator: gen})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := svc.Plan(ctx, WorkloadRequest{Generator: gen})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit {
		t.Error("repeat generator request missed")
	}
	if r1.Digest != r2.Digest {
		t.Error("generator request digest unstable")
	}
	// The generated instance must match what a caller building it by hand
	// gets (mlb-run convention: wake seed = seed^0xA5, start at the
	// source's first wake slot).
	in, err := svc.resolve(WorkloadRequest{Generator: gen})
	if err != nil {
		t.Fatal(err)
	}
	if in.Wake.Rate() != 10 {
		t.Errorf("generated wake rate %d", in.Wake.Rate())
	}
	if err := r1.Result.Schedule.Validate(in); err != nil {
		t.Errorf("generated plan invalid against its instance: %v", err)
	}
}

func TestNoCacheBypassesLookupButStores(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	ctx := context.Background()
	in := testInstance(t, 80, 4)
	if _, err := svc.Plan(ctx, WorkloadRequest{Instance: in, NoCache: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Plan(ctx, WorkloadRequest{Instance: in, NoCache: true}); err != nil {
		t.Fatal(err)
	}
	if m := svc.Metrics(); m.Searches != 2 {
		t.Errorf("NoCache requests ran %d searches; want 2", m.Searches)
	}
	// A normal request afterwards is served from the stored result.
	r, err := svc.Plan(ctx, WorkloadRequest{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	if !r.CacheHit {
		t.Error("NoCache result was not stored")
	}
}

func TestPlanBatch(t *testing.T) {
	svc := New(Config{Workers: 4})
	defer svc.Close()
	reqs := []WorkloadRequest{
		{Generator: &Generator{N: 60, Seed: 1}},
		{Generator: &Generator{N: 60, Seed: 2}},
		{Generator: &Generator{N: 60, Seed: 1}}, // duplicate of [0]
		{Scheduler: "nope", Generator: &Generator{N: 60, Seed: 3}},
	}
	resps := svc.PlanBatch(context.Background(), reqs)
	if len(resps) != 4 {
		t.Fatalf("%d responses", len(resps))
	}
	for i := 0; i < 3; i++ {
		if resps[i].Err != nil {
			t.Fatalf("batch item %d: %v", i, resps[i].Err)
		}
	}
	if resps[0].Digest != resps[2].Digest || resps[0].Result.PA != resps[2].Result.PA {
		t.Error("duplicate batch items disagree")
	}
	if resps[3].Err == nil {
		t.Error("bad scheduler did not fail its item")
	}
}

func TestSweepStreams(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	var items []SweepItem
	err := svc.Sweep(context.Background(), SweepRequest{
		Sizes: []int{50, 60},
		Seeds: []uint64{1, 2},
	}, func(it SweepItem) error {
		items = append(items, it)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 4 {
		t.Fatalf("streamed %d items; want 4", len(items))
	}
	for _, it := range items {
		if it.Err != "" {
			t.Errorf("n=%d seed=%d: %s", it.N, it.Seed, it.Err)
		}
		if it.PA <= 0 || it.Digest == "" {
			t.Errorf("malformed item %+v", it)
		}
	}
	// Re-sweeping is all hits.
	hits := 0
	if err := svc.Sweep(context.Background(), SweepRequest{Sizes: []int{50, 60}, Seeds: []uint64{1, 2}},
		func(it SweepItem) error {
			if it.CacheHit {
				hits++
			}
			return nil
		}); err != nil {
		t.Fatal(err)
	}
	if hits != 4 {
		t.Errorf("re-sweep hit %d of 4", hits)
	}
}

func TestClose(t *testing.T) {
	svc := New(Config{Workers: 2})
	in := testInstance(t, 60, 1)
	if _, err := svc.Plan(context.Background(), WorkloadRequest{Instance: in}); err != nil {
		t.Fatal(err)
	}
	svc.Close()
	svc.Close() // idempotent
	if _, err := svc.Plan(context.Background(), WorkloadRequest{Instance: in}); err != ErrClosed {
		t.Fatalf("Plan after Close: %v", err)
	}
}

func TestHistPercentiles(t *testing.T) {
	var h hist
	for i := 1; i <= 1000; i++ {
		h.observe(time.Duration(i) * time.Microsecond)
	}
	p50 := h.percentile(0.50)
	p99 := h.percentile(0.99)
	if p50 < 400*time.Microsecond || p50 > 700*time.Microsecond {
		t.Errorf("p50 = %v, want ≈ 500µs", p50)
	}
	if p99 < 900*time.Microsecond || p99 > 1300*time.Microsecond {
		t.Errorf("p99 = %v, want ≈ 990µs", p99)
	}
	if h.count() != 1000 {
		t.Errorf("count = %d", h.count())
	}
}

// TestErrorsCountEarlyFailures: every request that ends in an error counts
// once in Metrics.Errors, including those rejected before any cache or
// worker is reached.
func TestErrorsCountEarlyFailures(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	bad := map[string]WorkloadRequest{
		"unknown scheduler": {Generator: &Generator{N: 60, Seed: 1}, Scheduler: "nosuch"},
		"zero nodes":        {Generator: &Generator{N: 0}},
	}
	methods := map[string]func(WorkloadRequest) error{
		"plan": func(r WorkloadRequest) error {
			_, err := s.Plan(ctx, r)
			return err
		},
		"aggregate": func(r WorkloadRequest) error {
			_, err := s.Aggregate(ctx, AggregateRequest{r})
			return err
		},
		"validate": func(r WorkloadRequest) error {
			_, err := s.Validate(ctx, ValidateRequest{WorkloadRequest: r})
			return err
		},
		"replan": func(r WorkloadRequest) error {
			_, err := s.Replan(ctx, ReplanRequest{WorkloadRequest: r})
			return err
		},
	}
	for method, call := range methods {
		for name, req := range bad {
			before := s.Metrics().Errors
			if err := call(req); err == nil {
				t.Fatalf("%s with %s succeeded", method, name)
			}
			if got := s.Metrics().Errors - before; got != 1 {
				t.Errorf("%s with %s: Errors rose by %d, want 1", method, name, got)
			}
		}
	}
}
