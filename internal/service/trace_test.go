package service

import (
	"context"
	"testing"
	"time"

	"mlbs/internal/churn"
	"mlbs/internal/obs"
)

// spanByName finds the first direct child of root with the given name.
func spanByName(root *obs.SpanSnapshot, name string) *obs.SpanSnapshot {
	for i := range root.Children {
		if root.Children[i].Name == name {
			return &root.Children[i]
		}
	}
	return nil
}

// TestTracedPlanSpans pins the tentpole contract: a traced cold plan's
// snapshot contains resolve, cache, search and improve phases with the
// engine's search-internal counters attached, while a traced warm hit
// shows the cache phase only — the search never re-ran, so no search span
// may appear.
func TestTracedPlanSpans(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	in := testInstance(t, 100, 7)
	req := WorkloadRequest{Instance: in, ImproveBudget: 20 * time.Millisecond}

	tr := obs.NewTrace("/v1/plan")
	resp, err := svc.Plan(obs.NewContext(context.Background(), tr), req)
	if err != nil {
		t.Fatal(err)
	}
	snap := tr.Finish(resp.Digest, "")
	if snap == nil || snap.Digest != resp.Digest {
		t.Fatalf("snapshot: %+v", snap)
	}

	rs := spanByName(&snap.Root, "resolve")
	if rs == nil || rs.Attrs["nodes"] != int64(100) {
		t.Fatalf("resolve span missing or unannotated: %+v", rs)
	}
	cs := spanByName(&snap.Root, "cache")
	if cs == nil || cs.Attrs["hit"] != false {
		t.Fatalf("cache span missing or wrong: %+v", cs)
	}
	ss := spanByName(&snap.Root, "search")
	if ss == nil {
		t.Fatal("cold plan trace has no search span")
	}
	if exp, _ := ss.Attrs["expanded"].(int64); exp <= 0 {
		t.Fatalf("search span reports no expansions: %v", ss.Attrs)
	}
	if d, _ := ss.Attrs["search_depth"].(int64); d <= 0 {
		t.Fatalf("traced search collected no depth profile: %v", ss.Attrs)
	}
	is := spanByName(&snap.Root, "improve")
	if is == nil {
		t.Fatal("cold plan trace has no improve span")
	}
	if is.Attrs["budget_ns"] != int64(20*time.Millisecond) {
		t.Fatalf("improve span budget: %v", is.Attrs)
	}

	// The engine totals behind mlbs_engine_states_total moved.
	if m := svc.Metrics(); m.EngineStates <= 0 {
		t.Fatalf("EngineStates = %d after a cold search", m.EngineStates)
	}

	// Warm traced hit: cache phase only.
	tr2 := obs.NewTrace("/v1/plan")
	resp2, err := svc.Plan(obs.NewContext(context.Background(), tr2), WorkloadRequest{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	if !resp2.CacheHit {
		t.Fatal("second plan missed the cache")
	}
	snap2 := tr2.Finish(resp2.Digest, "")
	cs2 := spanByName(&snap2.Root, "cache")
	if cs2 == nil || cs2.Attrs["hit"] != true {
		t.Fatalf("warm cache span: %+v", cs2)
	}
	if spanByName(&snap2.Root, "search") != nil {
		t.Fatal("warm hit trace grew a search span")
	}
}

// TestTracedUntracedResultsIdentical pins golden-safety at the service
// level: the Result a traced request computes is identical — same
// schedule, same aggregate stats — to the untraced one, because the depth
// profile observes the identical search rather than steering it.
func TestTracedUntracedResultsIdentical(t *testing.T) {
	in := testInstance(t, 120, 3)

	svcA := New(Config{Workers: 1})
	plain, err := svcA.Plan(context.Background(), WorkloadRequest{Instance: in})
	svcA.Close()
	if err != nil {
		t.Fatal(err)
	}

	svcB := New(Config{Workers: 1})
	defer svcB.Close()
	tr := obs.NewTrace("/v1/plan")
	traced, err := svcB.Plan(obs.NewContext(context.Background(), tr), WorkloadRequest{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish(traced.Digest, "")

	if traced.Digest != plain.Digest {
		t.Fatalf("digest drifted: %s vs %s", traced.Digest, plain.Digest)
	}
	if traced.Result.Schedule.End() != plain.Result.Schedule.End() ||
		traced.Result.PA != plain.Result.PA ||
		traced.Result.Stats.Expanded != plain.Result.Stats.Expanded ||
		traced.Result.Stats.MemoHits != plain.Result.Stats.MemoHits {
		t.Fatalf("traced result diverged: %+v vs %+v", traced.Result.Stats, plain.Result.Stats)
	}
	if plain.Result.Stats.Depths != nil {
		t.Fatal("untraced service result carries a depth profile")
	}
	if traced.Result.Stats.Depths == nil {
		t.Fatal("traced service result lost its depth profile")
	}
}

// TestTracedReplanSpan pins the churn path's observability: a traced cold
// replan snapshot carries a repair span with the classification outcome
// and kept-prefix accounting.
func TestTracedReplanSpan(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	in := testInstance(t, 100, 7)
	if _, err := svc.Plan(context.Background(), WorkloadRequest{Instance: in}); err != nil {
		t.Fatal(err)
	}

	tr := obs.NewTrace("/v1/replan")
	resp, err := svc.Replan(obs.NewContext(context.Background(), tr), ReplanRequest{
		WorkloadRequest: WorkloadRequest{Instance: in},
		Delta:           churn.Delta{Events: []churn.Event{{Kind: churn.PositionJitter, Node: 1, X: 1e-9, Y: 1e-9}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := tr.Finish(resp.Digest, "")

	cs := spanByName(&snap.Root, "cache")
	if cs == nil || cs.Attrs["hit"] != false {
		t.Fatalf("replan cache span: %+v", cs)
	}
	rp := spanByName(&snap.Root, "repair")
	if rp == nil {
		t.Fatal("replan trace has no repair span")
	}
	if rp.Attrs["strategy"] != string(resp.Strategy) {
		t.Fatalf("repair strategy attr %v, response %v", rp.Attrs["strategy"], resp.Strategy)
	}
	if rp.Attrs["base_advances"] != int64(resp.BaseAdvances) {
		t.Fatalf("repair base_advances attr: %v", rp.Attrs)
	}
}
