package service

import (
	"context"
	"testing"

	"mlbs/internal/churn"
	"mlbs/internal/core"
	"mlbs/internal/reliability"
	"mlbs/internal/sim"
)

// TestPlanChannels exercises the channels parameter end to end through the
// serving layer: distinct cache entries per K, valid channelized plans,
// and the canonical K ∈ {0, 1} aliasing onto one entry.
func TestPlanChannels(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	ctx := context.Background()

	plan := func(k int) Response {
		t.Helper()
		resp, err := svc.Plan(ctx, WorkloadRequest{Generator: &Generator{N: 60, Seed: 1, DutyRate: 10, Channels: k}})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	r0 := plan(0)
	r4 := plan(4)
	if r0.Digest == r4.Digest {
		t.Fatal("K=4 instance shares the K=1 digest")
	}
	if r4.Result.Schedule.Latency() > r0.Result.Schedule.Latency() {
		t.Fatalf("K=4 latency %d worse than single-channel %d",
			r4.Result.Schedule.Latency(), r0.Result.Schedule.Latency())
	}

	// The channelized plan validates and replays clean against the same
	// instance the service planned.
	in, err := svc.resolve(WorkloadRequest{Generator: &Generator{N: 60, Seed: 1, DutyRate: 10, Channels: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := r4.Result.Schedule.Validate(in); err != nil {
		t.Fatalf("served channelized plan invalid: %v", err)
	}
	rep, err := sim.Replay(in, r4.Result.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatal("served channelized plan does not replay complete")
	}

	// K=1 canonicalizes onto the K=0 entry; K=4 repeats hit their own.
	if r := plan(1); !r.CacheHit || r.Digest != r0.Digest {
		t.Fatalf("K=1 did not hit the single-channel entry: hit=%v digest=%s", r.CacheHit, r.Digest)
	}
	if r := plan(4); !r.CacheHit {
		t.Fatal("K=4 repeat missed the cache")
	}

	if _, err := svc.Plan(ctx, WorkloadRequest{Generator: &Generator{N: 60, Seed: 1, Channels: core.MaxChannels + 1}}); err == nil {
		t.Fatal("out-of-range channel count accepted")
	}
}

// TestReplanChannels repairs a channelized base plan after churn through
// the serving layer and validates the repaired plan against the mutated
// channelized instance.
func TestReplanChannels(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	ctx := context.Background()

	gen := &Generator{N: 60, Seed: 1, DutyRate: 10, Channels: 4}
	delta := churn.Delta{Events: []churn.Event{
		{Kind: churn.PositionJitter, Node: 7, X: 0.4, Y: -0.3},
		{Kind: churn.NodeJoin, X: 25, Y: 25},
	}}
	resp, err := svc.Replan(ctx, ReplanRequest{WorkloadRequest: WorkloadRequest{Generator: gen}, Delta: delta})
	if err != nil {
		t.Fatal(err)
	}
	if resp.BaseDigest == resp.Digest {
		t.Fatal("mutated digest equals base digest")
	}

	base, err := svc.resolve(WorkloadRequest{Generator: gen})
	if err != nil {
		t.Fatal(err)
	}
	mutated, _, err := churn.Apply(base, delta)
	if err != nil {
		t.Fatal(err)
	}
	if mutated.K() != 4 {
		t.Fatalf("churn.Apply lost the channel count: K=%d", mutated.K())
	}
	if err := resp.Result.Schedule.Validate(mutated); err != nil {
		t.Fatalf("repaired channelized plan invalid: %v", err)
	}

	if r2, err := svc.Replan(ctx, ReplanRequest{WorkloadRequest: WorkloadRequest{Generator: gen}, Delta: delta}); err != nil || !r2.CacheHit {
		t.Fatalf("replan repeat: hit=%v err=%v", r2.CacheHit, err)
	}
}

// TestValidateChannels runs the Monte-Carlo validation endpoint logic on a
// channelized plan: the estimator replays the channelized schedule, and
// repair (when needed) packs its retransmission classes onto channels.
func TestValidateChannels(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	ctx := context.Background()

	resp, err := svc.Validate(ctx, ValidateRequest{
		WorkloadRequest: WorkloadRequest{Generator: &Generator{N: 60, Seed: 1, Channels: 4}},
		Loss:            reliability.LossModel{Rate: 0.05, Seed: 3},
		Trials:          64,
		Target:          0.99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Report == nil || resp.Report.Trials != 64 {
		t.Fatalf("report = %+v", resp.Report)
	}
	if resp.Repair != nil && resp.Repair.RepairedLatency < resp.Repair.BaseLatency {
		t.Fatal("repair shortened the schedule")
	}
}
