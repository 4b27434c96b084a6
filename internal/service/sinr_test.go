package service

import (
	"context"
	"testing"

	"mlbs/internal/sim"
)

// TestPlanGeneratorSINR drives the SINR backend end to end through the
// serving layer: a generator request carrying SINR parameters must plan a
// schedule that the SINR replayer executes collision-free, cache it under
// a digest distinct from the protocol-model plan, and reject malformed
// parameters before touching the planner.
func TestPlanGeneratorSINR(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	ctx := context.Background()

	graphReq := WorkloadRequest{Generator: &Generator{N: 60, Seed: 1}}
	sinrReq := WorkloadRequest{Generator: &Generator{N: 60, Seed: 1, SINRAlpha: 3, SINRBeta: 2}}

	graphResp, err := svc.Plan(ctx, graphReq)
	if err != nil {
		t.Fatal(err)
	}
	sinrResp, err := svc.Plan(ctx, sinrReq)
	if err != nil {
		t.Fatal(err)
	}
	if graphResp.Digest == sinrResp.Digest {
		t.Fatalf("SINR request shares digest %s with the protocol-model request", sinrResp.Digest)
	}

	in, err := svc.resolve(sinrReq)
	if err != nil {
		t.Fatal(err)
	}
	if in.SINR == nil || in.SINR.Alpha != 3 || in.SINR.Beta != 2 {
		t.Fatalf("resolved instance lost SINR params: %+v", in.SINR)
	}
	sched := sinrResp.Result.Schedule
	if err := sched.Validate(in); err != nil {
		t.Fatalf("planned schedule invalid under SINR: %v", err)
	}
	rep, err := sim.Replay(in, sched)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed || len(rep.Collisions) != 0 {
		t.Fatalf("SINR plan replayed with collisions: %+v", rep.Collisions)
	}

	// Same request again must be a cache hit, proving the SINR fields are
	// part of the generator cache key rather than ignored by it.
	again, err := svc.Plan(ctx, sinrReq)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatal("repeat SINR request missed the cache")
	}

	if _, err := svc.Plan(ctx, WorkloadRequest{Generator: &Generator{N: 60, Seed: 1, SINRAlpha: 3, SINRBeta: -1}}); err == nil {
		t.Fatal("service accepted a negative SINR threshold")
	}
}
