package service

import (
	"context"
	"errors"
	"time"

	"mlbs/internal/churn"
	"mlbs/internal/core"
	"mlbs/internal/graphio"
	"mlbs/internal/obs"
)

// ReplanRequest asks the service to repair a cached plan after a topology
// delta instead of searching the mutated instance from scratch. The
// embedded envelope selects the *base* instance the delta applies to
// (exactly one of Instance and Generator) and the engine used for the
// residual (or fallback cold) search; its NoCache bypasses the
// replan-cache lookup only (the outcome is still stored, and the base
// plan still resolves through the plan cache), and its ImproveBudget is
// ignored. Repairs are cached by (base digest, delta digest); cold
// repairs — full engine searches — are additionally published into the
// plan cache under the mutated instance's digest.
type ReplanRequest struct {
	WorkloadRequest
	// Delta is the ordered event sequence to apply to the base instance.
	Delta churn.Delta
}

// ReplanResponse is one replan answer. Result is shared and immutable.
type ReplanResponse struct {
	// BaseDigest / Digest content-address the base and mutated instances.
	BaseDigest string
	Digest     string
	Scheduler  string
	Result     *core.Result
	// Strategy, KeptAdvances and BaseAdvances report the blast-radius
	// classification (see churn.Strategy).
	Strategy     churn.Strategy
	KeptAdvances int
	BaseAdvances int
	// BasePlanHit reports whether the base plan came from the plan cache.
	// It is only meaningful when this caller actually computed the repair
	// (a replan-cache hit resolves no base plan at all);
	// CacheHit/Coalesced describe the replan cache.
	BasePlanHit bool
	CacheHit    bool
	Coalesced   bool
	Elapsed     time.Duration
}

// replanJob carries one repair onto a worker: the base plan (shared,
// immutable — the replanner never mutates it) and the delta.
type replanJob struct {
	basePlan *core.Schedule
	delta    churn.Delta
}

// replanOutcome is the cached product of one repair. The mutated instance
// itself is not retained — its digest is, and the repaired plan is stored
// in the plan cache under that digest.
type replanOutcome struct {
	res          *core.Result
	digest       string
	strategy     churn.Strategy
	keptAdvances int
	baseAdvances int
}

// execReplan runs one repair on the worker's reusable replanner (which
// wraps the same per-spec engine the worker's plan searches use — one
// goroutine, one arena set).
func (w *worker) execReplan(s *Service, jb job) (*replanOutcome, error) {
	span := jb.tr.Root().Child("repair")
	defer span.End()
	sp := resolveSpec(jb.sp, jb.in)
	rp, ok := w.replanners[sp]
	if !ok {
		rp = churn.NewReplanner(churn.ReplanConfig{Scheduler: w.scheduler(sp)})
		w.replanners[sp] = rp
	}
	rr, err := rp.Replan(jb.in, jb.rep.basePlan, jb.rep.delta)
	if err != nil {
		return nil, err
	}
	s.engineStates.Add(int64(rr.Result.Stats.Expanded))
	s.engineMemoHits.Add(int64(rr.Result.Stats.MemoHits))
	if span != nil {
		span.SetStr("strategy", string(rr.Strategy))
		span.SetInt("kept_advances", int64(rr.KeptAdvances))
		span.SetInt("base_advances", int64(rr.BaseAdvances))
		if rr.BaseAdvances > 0 {
			span.SetFloat("kept_frac", float64(rr.KeptAdvances)/float64(rr.BaseAdvances))
		}
		span.SetInt("expanded", int64(rr.Result.Stats.Expanded))
		span.SetInt("end_slot", int64(rr.Result.Schedule.End()))
	}
	digest, err := graphio.InstanceDigest(rr.Instance)
	if err != nil {
		return nil, err
	}
	return &replanOutcome{
		res:          rr.Result,
		digest:       digest.String(),
		strategy:     rr.Strategy,
		keptAdvances: rr.KeptAdvances,
		baseAdvances: rr.BaseAdvances,
	}, nil
}

// dispatchReplan queues one repair on the worker shard owned by key and
// waits for its outcome.
func (s *Service) dispatchReplan(ctx context.Context, key string, base core.Instance, sp spec, rj *replanJob) (*replanOutcome, error) {
	r, err := s.dispatchJob(ctx, key, job{in: base, sp: sp, rep: rj, tr: obs.FromContext(ctx)})
	if err != nil {
		return nil, err
	}
	return r.rep, r.err
}

// Replan answers one churn request: resolve the base instance, obtain its
// plan through the plan cache, then serve the repaired plan from the
// replan cache keyed by (base digest, delta digest) — repairing at most
// once even under concurrent identical requests. Cold repairs are
// additionally stored in the plan cache under the *mutated* instance's
// digest (they are exactly what a Plan request would compute), so the
// churned topology content-addresses like any other.
func (s *Service) Replan(ctx context.Context, req ReplanRequest) (ReplanResponse, error) {
	start := time.Now()
	if err := s.enter(); err != nil {
		return ReplanResponse{}, err
	}
	defer s.inflight.Done()
	if err := ctx.Err(); err != nil {
		return ReplanResponse{}, s.fail(err)
	}
	sp, err := parseSpec(req.Scheduler, req.Budget)
	if err != nil {
		return ReplanResponse{}, s.fail(err)
	}
	if err := req.Delta.Validate(); err != nil {
		return ReplanResponse{}, s.fail(err)
	}
	base, err := s.resolve(req.WorkloadRequest)
	if err != nil {
		return ReplanResponse{}, s.fail(err)
	}
	if base.G == nil {
		return ReplanResponse{}, s.fail(errors.New("service: replan base has no graph"))
	}
	baseDigest, err := graphio.InstanceDigest(base)
	if err != nil {
		return ReplanResponse{}, s.fail(err)
	}
	deltaDigest, err := churn.DeltaDigest(req.Delta)
	if err != nil {
		return ReplanResponse{}, s.fail(err)
	}
	pkey := planKey(baseDigest, sp)
	rkey := pkey + "|replan|" + deltaDigest.String()
	s.replans.Add(1)
	tr := obs.FromContext(ctx)
	cs := tr.Root().Child("cache")

	// The base plan resolves lazily, inside the repair computation: a
	// replan-cache hit must not pay a base-plan search (the base may have
	// been evicted from the plan cache while the repair is still hot).
	// Steady-state churn traffic repairing the same base over and over
	// finds the base plan in the plan cache on every actual repair.
	var baseHit bool
	out, hit, coalesced, err := cachedCompute(ctx, s.rcache, rkey, req.NoCache,
		func(ctx context.Context) (*replanOutcome, error) {
			basePlan, planHit, _, err := s.planFor(ctx, pkey, base, sp, false, 0)
			if err != nil {
				return nil, err
			}
			baseHit = planHit
			return s.dispatchReplan(ctx, rkey, base, sp, &replanJob{basePlan: basePlan.Schedule, delta: req.Delta})
		})
	if err != nil {
		cs.End()
		return ReplanResponse{}, s.fail(err)
	}
	if cs != nil {
		cs.SetBool("hit", hit)
		cs.SetBool("coalesced", coalesced)
		cs.SetBool("base_plan_hit", baseHit)
		cs.SetStr("strategy", string(out.strategy))
	}
	cs.End()
	if !hit && !coalesced {
		switch out.strategy {
		case churn.StrategyPrefix:
			s.replanPrefix.Add(1)
		case churn.StrategyIncremental:
			s.replanIncremental.Add(1)
		default:
			s.replanCold.Add(1)
			// A cold repair ran the actual engine on the mutated instance —
			// byte-for-byte what a Plan request would compute — so publish
			// it under the mutated instance's own digest for later Plan
			// traffic. Prefix/incremental repairs stay in the replan cache
			// only: they are valid but possibly suboptimal, and a Plan
			// request for an exactness-claiming scheduler must never be
			// answered with one.
			s.cache.Put(planKeyString(out.digest, sp), out.res)
		}
	}
	return ReplanResponse{
		BaseDigest:   baseDigest.String(),
		Digest:       out.digest,
		Scheduler:    out.res.Scheduler,
		Result:       out.res,
		Strategy:     out.strategy,
		KeptAdvances: out.keptAdvances,
		BaseAdvances: out.baseAdvances,
		BasePlanHit:  baseHit,
		CacheHit:     hit,
		Coalesced:    coalesced,
		Elapsed:      time.Since(start),
	}, nil
}
