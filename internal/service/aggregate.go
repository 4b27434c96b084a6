package service

import (
	"context"
	"fmt"
	"time"

	"mlbs/internal/aggregate"
	"mlbs/internal/core"
	"mlbs/internal/graphio"
	"mlbs/internal/obs"
)

// AggregateRequest asks the service for a conflict-aware minimum-latency
// convergecast schedule: every node's reading routed to the sink (the
// instance's Source read in reverse) along an aggregation tree, merged at
// parents on the way. The embedded envelope selects the instance and the
// tree policy — Scheduler is "" or "agg-spt" (shortest-path tree, the
// default) or "agg-bounded" (degree-bounded SPT); Budget and ImproveBudget
// are ignored, and NoCache bypasses the convergecast-plan cache (the
// result is still stored).
type AggregateRequest struct {
	WorkloadRequest
}

// AggregateResponse is one aggregation answer. Result is shared and
// immutable.
type AggregateResponse struct {
	// Digest content-addresses the instance *as an aggregation problem* —
	// the broadcast digest stream plus the "agg" tag, so convergecast and
	// broadcast plans for one topology never alias.
	Digest    string
	Scheduler string
	Result    *aggregate.Result
	CacheHit  bool
	Coalesced bool
	Elapsed   time.Duration
}

// aggJob carries one convergecast scheduling run onto a worker.
type aggJob struct {
	kind string // resolved scheduler name: agg-spt | agg-bounded
}

// parseAggSpec normalizes the aggregation scheduler selection.
func parseAggSpec(name string) (string, error) {
	switch name {
	case "", "agg-spt":
		return "agg-spt", nil
	case "agg-bounded":
		return "agg-bounded", nil
	default:
		return "", fmt.Errorf("service: unknown aggregation scheduler %q (want agg-spt|agg-bounded)", name)
	}
}

// aggScheduler returns the worker's reusable convergecast scheduler for a
// resolved kind, building it on first use. Only the worker's own goroutine
// calls this.
func (w *worker) aggScheduler(kind string) *aggregate.Scheduler {
	sched, ok := w.aggs[kind]
	if !ok {
		sched = &aggregate.Scheduler{}
		if kind == "agg-bounded" {
			sched.Tree = aggregate.TreeBounded
		}
		w.aggs[kind] = sched
	}
	return sched
}

// execAggregate runs one convergecast scheduling job on the worker's
// reusable scheduler.
func (w *worker) execAggregate(s *Service, jb job) (*aggregate.Result, error) {
	span := jb.tr.Root().Child("agg_search")
	defer span.End()
	res, err := w.aggScheduler(jb.agg.kind).Schedule(jb.in)
	if err != nil {
		return nil, err
	}
	s.aggSearches.Add(1)
	if span != nil {
		span.SetStr("scheduler", res.Scheduler)
		span.SetInt("latency_slots", int64(res.LatencySlots))
		span.SetInt("advances", int64(len(res.Schedule.Advances)))
	}
	return res, nil
}

// dispatchAggregate queues one convergecast run on the worker shard owned
// by key and waits for its result.
func (s *Service) dispatchAggregate(ctx context.Context, key string, in core.Instance, kind string) (*aggregate.Result, error) {
	r, err := s.dispatchJob(ctx, key, job{in: in, agg: &aggJob{kind: kind}, tr: obs.FromContext(ctx)})
	if err != nil {
		return nil, err
	}
	return r.agg, r.err
}

// Aggregate answers one convergecast request: from the aggregation cache
// when the instance has been scheduled before, otherwise by exactly one
// scheduler run even under concurrent identical requests — the same
// serving discipline Plan uses, against a separate cache keyed by the
// "agg"-tagged digest.
func (s *Service) Aggregate(ctx context.Context, req AggregateRequest) (AggregateResponse, error) {
	start := time.Now()
	if err := s.enter(); err != nil {
		return AggregateResponse{}, err
	}
	defer s.inflight.Done()
	if err := ctx.Err(); err != nil {
		return AggregateResponse{}, s.fail(err)
	}
	kind, err := parseAggSpec(req.Scheduler)
	if err != nil {
		return AggregateResponse{}, s.fail(err)
	}
	tr := obs.FromContext(ctx)
	rs := tr.Root().Child("resolve")
	in, err := s.resolve(req.WorkloadRequest)
	if err != nil {
		rs.End()
		return AggregateResponse{}, s.fail(err)
	}
	digest, err := graphio.AggInstanceDigest(in)
	if err != nil {
		rs.End()
		return AggregateResponse{}, s.fail(err)
	}
	if rs != nil {
		rs.SetInt("nodes", int64(in.G.N()))
		rs.SetStr("scheduler", kind)
	}
	rs.End()
	key := digest.String() + "|" + kind

	s.aggregates.Add(1)
	cs := tr.Root().Child("cache")
	res, hit, coalesced, err := cachedCompute(ctx, s.acache, key, req.NoCache,
		func(ctx context.Context) (*aggregate.Result, error) {
			return s.dispatchAggregate(ctx, key, in, kind)
		})
	elapsed := time.Since(start)
	if err != nil {
		cs.End()
		return AggregateResponse{}, s.fail(err)
	}
	cs.SetBool("hit", hit)
	cs.SetBool("coalesced", coalesced)
	cs.End()
	return AggregateResponse{
		Digest:    digest.String(),
		Scheduler: res.Scheduler,
		Result:    res,
		CacheHit:  hit,
		Coalesced: coalesced,
		Elapsed:   elapsed,
	}, nil
}
