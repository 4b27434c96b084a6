package service

import (
	"context"
	"fmt"
	"time"

	"mlbs/internal/aggregate"
	"mlbs/internal/core"
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

// aggregate runs one convergecast scheduling job on the worker's
// reusable scheduler for kind.
func (w *worker) aggregate(s *Service, tr *obs.Trace, in core.Instance, kind string) (*aggregate.Result, error) {
	span := tr.Root().Child("agg_search")
	defer span.End()
	res, err := w.aggScheduler(kind).Schedule(in)
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

// Aggregate answers one convergecast request: from the aggregation cache
// when the instance has been scheduled before, otherwise by exactly one
// scheduler run even under concurrent identical requests — the same
// serving discipline Plan uses, against a separate cache keyed by the
// "agg"-tagged digest.
func (s *Service) Aggregate(ctx context.Context, req AggregateRequest) (AggregateResponse, error) {
	return serve(ctx, s, func(start time.Time) (AggregateResponse, error) {
		kind, err := parseAggSpec(req.Scheduler)
		if err != nil {
			return AggregateResponse{}, err
		}
		r, err := s.resolveStep(ctx, req.WorkloadRequest, kind)
		if err != nil {
			return AggregateResponse{}, err
		}
		key := r.aggDigest + "|" + kind
		s.aggregates.Add(1)
		res, hit, coalesced, err := cacheStep(ctx, s.acache, key, req.NoCache,
			func(ctx context.Context) (*aggregate.Result, error) {
				tr := obs.FromContext(ctx)
				return onWorker(ctx, s, key, func(w *worker) (*aggregate.Result, error) {
					return w.aggregate(s, tr, r.in, kind)
				})
			})
		if err != nil {
			return AggregateResponse{}, err
		}
		return AggregateResponse{
			Digest:    r.aggDigest,
			Scheduler: res.Scheduler,
			Result:    res,
			CacheHit:  hit,
			Coalesced: coalesced,
			Elapsed:   time.Since(start),
		}, nil
	})
}
