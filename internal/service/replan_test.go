package service

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"mlbs/internal/churn"
	"mlbs/internal/core"
	"mlbs/internal/graphio"
	"mlbs/internal/topology"
)

func replanBase(t testing.TB, n int, seed uint64) core.Instance {
	t.Helper()
	dep, err := topology.Generate(topology.PaperConfig(n), seed)
	if err != nil {
		t.Fatal(err)
	}
	return core.Sync(dep.G, dep.Source)
}

// tinyJitter is a delta that provably changes nothing about adjacency —
// always applicable, always repairable.
func tinyJitter(in core.Instance, node int) churn.Delta {
	node %= in.G.N()
	return churn.Delta{Events: []churn.Event{
		{Kind: churn.PositionJitter, Node: node, X: 1e-9 * float64(node+1), Y: 1e-9},
	}}
}

// sourceJoin joins a node half a radius from the source — always connected.
func sourceJoin(in core.Instance, k int) churn.Delta {
	p := in.G.Pos(in.Source)
	return churn.Delta{Events: []churn.Event{
		{Kind: churn.NodeJoin, X: p.X + 0.25 + 0.01*float64(k), Y: p.Y + 0.25},
	}}
}

func encodeResult(t testing.TB, res *core.Result) []byte {
	t.Helper()
	data, err := graphio.EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestServiceReplanBasics(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	ctx := context.Background()
	base := replanBase(t, 60, 1)
	d := sourceJoin(base, 0)

	resp, err := svc.Replan(ctx, ReplanRequest{WorkloadRequest: WorkloadRequest{Instance: &base}, Delta: d})
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHit || resp.Coalesced {
		t.Fatalf("first replan cannot be a cache hit: %+v", resp)
	}
	if resp.BaseDigest == resp.Digest {
		t.Fatal("join did not change the instance digest")
	}
	mutated, _, err := churn.Apply(base, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Result.Schedule.Validate(mutated); err != nil {
		t.Fatalf("served repaired plan invalid: %v", err)
	}

	// Same (base, delta) again: replan cache hit.
	again, err := svc.Replan(ctx, ReplanRequest{WorkloadRequest: WorkloadRequest{Instance: &base}, Delta: d})
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatalf("repeat replan missed the cache: %+v", again)
	}
	if again.Result != resp.Result {
		t.Fatal("replan cache returned a different result pointer")
	}

	// A prefix/incremental repair must NOT poison the plan cache: a Plan
	// request for the mutated topology runs the real engine (it may be
	// asking for an exact schedule the repair cannot promise). Only cold
	// repairs — actual engine output — are published under the mutated
	// digest.
	pr, err := svc.Plan(ctx, WorkloadRequest{Instance: &mutated})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Digest != resp.Digest {
		t.Fatalf("digest mismatch: plan %s, replan %s", pr.Digest, resp.Digest)
	}
	if resp.Strategy != churn.StrategyCold && pr.CacheHit {
		t.Fatalf("%s repair leaked into the plan cache", resp.Strategy)
	}

	// Force a cold repair — fail a sender of the base plan's second
	// advance, which strands all but the first advance (< MinKeptFrac) —
	// and check it IS published: the follow-up Plan hits the cache.
	basePlan, err := core.NewGOPT(0).Schedule(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(basePlan.Schedule.Advances) < 2 {
		t.Fatal("base plan too short for the cold-repair scenario")
	}
	forcedCold := false
	for _, victim := range basePlan.Schedule.Advances[1].Senders {
		if victim == base.Source {
			continue
		}
		coldDelta := churn.Delta{Events: []churn.Event{{Kind: churn.NodeFail, Node: victim}}}
		cresp, err := svc.Replan(ctx, ReplanRequest{WorkloadRequest: WorkloadRequest{Instance: &base}, Delta: coldDelta})
		if err != nil {
			continue // this victim disconnects the deployment
		}
		if cresp.Strategy != churn.StrategyCold {
			t.Fatalf("early-sender failure should force a cold repair, got %s", cresp.Strategy)
		}
		forcedCold = true
		cmutated, _, err := churn.Apply(base, coldDelta)
		if err != nil {
			t.Fatal(err)
		}
		cpr, err := svc.Plan(ctx, WorkloadRequest{Instance: &cmutated})
		if err != nil {
			t.Fatal(err)
		}
		if !cpr.CacheHit {
			t.Fatal("cold repair was not published under the mutated digest")
		}
		break
	}
	if !forcedCold {
		t.Fatal("no early-sender failure was applicable")
	}

	m := svc.Metrics()
	if m.ReplanHits != 1 {
		t.Fatalf("replan metrics wrong: %+v", m)
	}
	if m.ReplanPrefix+m.ReplanIncremental+m.ReplanCold < 2 {
		t.Fatalf("at least two repairs should have been computed: %+v", m)
	}
}

func TestServiceReplanRejectsBadRequests(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	ctx := context.Background()
	base := replanBase(t, 50, 2)
	if _, err := svc.Replan(ctx, ReplanRequest{WorkloadRequest: WorkloadRequest{Instance: &base}, Delta: churn.Delta{
		Events: []churn.Event{{Kind: "warp"}},
	}}); err == nil {
		t.Fatal("bad delta accepted")
	}
	if _, err := svc.Replan(ctx, ReplanRequest{Delta: churn.Delta{}}); err == nil {
		t.Fatal("request without base accepted")
	}
	if _, err := svc.Replan(ctx, ReplanRequest{WorkloadRequest: WorkloadRequest{Instance: &base, Scheduler: "nope"}}); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	// A delta that kills the source is a request error, not a panic.
	if _, err := svc.Replan(ctx, ReplanRequest{WorkloadRequest: WorkloadRequest{Instance: &base}, Delta: churn.Delta{
		Events: []churn.Event{{Kind: churn.NodeFail, Node: base.Source}},
	}}); err == nil {
		t.Fatal("source-killing delta accepted")
	}
}

// TestServiceChurnConcurrency is the interleaving stress of the serving
// layer: 64 goroutines issue overlapping Plan / Replan / Validate requests
// on shared digests under -race, asserting singleflight coalescing (one
// computation per distinct key) and that no handed-out Result is mutated
// by a later replan — the immutability contract the engine-reuse pattern
// depends on.
func TestServiceChurnConcurrency(t *testing.T) {
	svc := New(Config{Workers: 4})
	defer svc.Close()
	ctx := context.Background()
	bases := []core.Instance{replanBase(t, 50, 3), replanBase(t, 60, 4)}
	deltas := make([][]churn.Delta, len(bases))
	for bi, base := range bases {
		for k := 0; k < 3; k++ {
			deltas[bi] = append(deltas[bi], sourceJoin(base, k))
		}
	}

	// Snapshot one handed-out plan per base before the storm.
	type snap struct {
		res  *core.Result
		want []byte
	}
	var snaps []snap
	for i := range bases {
		resp, err := svc.Plan(ctx, WorkloadRequest{Instance: &bases[i]})
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap{res: resp.Result, want: encodeResult(t, resp.Result)})
	}

	const goroutines = 64
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		leaders = map[string]int{} // replan key → computations observed
		errs    []error
	)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bi := i % len(bases)
			base := bases[bi]
			switch i % 4 {
			case 0:
				if _, err := svc.Plan(ctx, WorkloadRequest{Instance: &base}); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			case 1:
				if _, err := svc.Validate(ctx, ValidateRequest{WorkloadRequest: WorkloadRequest{Instance: &base}, Trials: 16}); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			default:
				d := deltas[bi][i%3]
				resp, err := svc.Replan(ctx, ReplanRequest{WorkloadRequest: WorkloadRequest{Instance: &base}, Delta: d})
				mu.Lock()
				if err != nil {
					errs = append(errs, err)
				} else if !resp.CacheHit && !resp.Coalesced {
					leaders[resp.BaseDigest+"|"+resp.Digest]++
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if len(errs) > 0 {
		t.Fatalf("%d request errors, first: %v", len(errs), errs[0])
	}
	for key, n := range leaders {
		if n != 1 {
			t.Fatalf("replan key %s computed %d times — singleflight broken", key, n)
		}
	}
	// Every snapshotted Result must be byte-identical after the storm:
	// later replans (which share worker engines and buffers with the
	// original searches) must not have written into handed-out schedules.
	for i, sn := range snaps {
		if got := encodeResult(t, sn.res); !bytes.Equal(got, sn.want) {
			t.Fatalf("handed-out result %d mutated by later traffic:\nbefore: %s\nafter: %s", i, sn.want, got)
		}
	}
	// Plan searches are bounded by distinct plan keys: the two base plans
	// (computed before the storm) — everything else must have coalesced or
	// hit. Replan residual searches are tracked separately.
	if m := svc.Metrics(); m.Searches != int64(len(bases)) {
		t.Fatalf("expected %d plan searches, got %d (coalescing broken?)", len(bases), m.Searches)
	}
}

// A replan storm on a cold service computes the repair exactly once.
func TestServiceReplanSingleflight(t *testing.T) {
	svc := New(Config{Workers: 4})
	defer svc.Close()
	ctx := context.Background()
	base := replanBase(t, 50, 5)
	d := sourceJoin(base, 0)

	const goroutines = 64
	var wg sync.WaitGroup
	computed := make(chan struct{}, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := svc.Replan(ctx, ReplanRequest{WorkloadRequest: WorkloadRequest{Instance: &base}, Delta: d})
			if err != nil {
				t.Error(err)
				return
			}
			if !resp.CacheHit && !resp.Coalesced {
				computed <- struct{}{}
			}
		}()
	}
	wg.Wait()
	close(computed)
	n := 0
	for range computed {
		n++
	}
	if n != 1 {
		t.Fatalf("%d goroutines computed the repair, want exactly 1", n)
	}
	m := svc.Metrics()
	if m.ReplanMisses != 1 {
		t.Fatalf("replan cache misses %d, want 1", m.ReplanMisses)
	}
	if total := m.ReplanPrefix + m.ReplanIncremental + m.ReplanCold; total != 1 {
		t.Fatalf("%d repairs computed, want 1", total)
	}
}
