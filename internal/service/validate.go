package service

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"mlbs/internal/core"
	"mlbs/internal/obs"
	"mlbs/internal/reliability"
)

// MaxValidateTrials caps one validation's Monte-Carlo batch so a single
// request cannot pin a worker indefinitely.
const MaxValidateTrials = 100_000

// ValidateRequest asks the service what a schedule actually delivers on a
// lossy channel: plan the instance (through the regular plan cache), then
// Monte-Carlo-replay the schedule under the loss model. The embedded
// envelope selects the instance and the plan whose schedule is validated;
// its NoCache bypasses the reliability-report cache only (the plan cache
// still serves the schedule), and its ImproveBudget is ignored.
type ValidateRequest struct {
	WorkloadRequest
	// Loss is the stochastic channel (defaults: iid kind).
	Loss reliability.LossModel
	// Trials sizes the Monte-Carlo batch; 0 selects the reliability
	// package default, values above MaxValidateTrials are rejected.
	Trials int
	// Target, when > 0, additionally runs conflict-aware retransmission
	// repair until the mean delivery ratio reaches it (see
	// reliability.RepairConfig).
	Target float64
	// MaxExtraSlots caps the repair latency penalty; 0 selects the
	// default.
	MaxExtraSlots int
}

// ValidateResponse is one validation answer. Report (and Repair, when a
// target was set) are shared and immutable.
type ValidateResponse struct {
	Digest    string
	Scheduler string
	// Report is the Monte-Carlo estimate — for repair runs, the estimate
	// of the *repaired* schedule (Repair.Before holds the baseline).
	Report *reliability.Report
	Repair *reliability.RepairResult
	// PlanCacheHit reports whether the underlying schedule came from the
	// plan cache; CacheHit/Coalesced describe the reliability-report
	// cache.
	PlanCacheHit bool
	CacheHit     bool
	Coalesced    bool
	Elapsed      time.Duration
}

// validateKey extends the plan key with everything the Monte-Carlo answer
// depends on: loss-model parameters, trial count, and the repair target.
func validateKey(pkey string, m reliability.LossModel, trials int, target float64, maxExtra int) string {
	return pkey + "|v|" + m.Kind +
		"|" + strconv.FormatFloat(m.Rate, 'x', -1, 64) +
		"|" + strconv.FormatUint(m.Seed, 10) +
		"|" + strconv.Itoa(trials) +
		"|" + strconv.FormatFloat(target, 'x', -1, 64) +
		"|" + strconv.Itoa(maxExtra)
}

// dispatchValidate queues one Monte-Carlo job on the worker shard owned by
// key and waits for its outcome.
func (s *Service) dispatchValidate(ctx context.Context, key string, in core.Instance, sp spec, vj *valJob) (*validateOutcome, error) {
	r, err := s.dispatchJob(ctx, key, job{in: in, sp: sp, val: vj, tr: obs.FromContext(ctx)})
	if err != nil {
		return nil, err
	}
	return r.out, r.err
}

// Validate answers one reliability request: resolve the instance, obtain
// its schedule through the plan cache, then serve the Monte-Carlo report
// from the reliability cache — computing it at most once even under
// concurrent identical requests.
func (s *Service) Validate(ctx context.Context, req ValidateRequest) (ValidateResponse, error) {
	start := time.Now()
	if err := s.enter(); err != nil {
		return ValidateResponse{}, err
	}
	defer s.inflight.Done()
	if err := ctx.Err(); err != nil {
		return ValidateResponse{}, s.fail(err)
	}
	sp, err := parseSpec(req.Scheduler, req.Budget)
	if err != nil {
		return ValidateResponse{}, s.fail(err)
	}
	model, err := req.Loss.Normalize()
	if err != nil {
		return ValidateResponse{}, s.fail(err)
	}
	trials := req.Trials
	if trials <= 0 {
		trials = reliability.DefaultTrials
	}
	if trials > MaxValidateTrials {
		return ValidateResponse{}, s.fail(fmt.Errorf("service: %d trials exceeds the cap of %d", trials, MaxValidateTrials))
	}
	if req.Target < 0 || req.Target > 1 {
		return ValidateResponse{}, s.fail(fmt.Errorf("service: repair target %v outside [0, 1]", req.Target))
	}
	maxExtra := req.MaxExtraSlots
	if maxExtra <= 0 {
		maxExtra = reliability.DefaultMaxExtraSlots
	}
	if req.Target == 0 {
		// No repair: the slot budget cannot influence the answer, so
		// normalize it out of the cache key — distinct max_extra_slots
		// values must not fragment the cache over identical work.
		maxExtra = 0
	}
	r, err := s.resolve(req.WorkloadRequest)
	if err != nil {
		return ValidateResponse{}, s.fail(err)
	}
	pkey := planKey(r.digest, sp)
	s.validations.Add(1)

	// The schedule itself always goes through the plan cache: re-running
	// the search would not change the Monte-Carlo answer, only waste a
	// worker.
	tr := obs.FromContext(ctx)
	ps := tr.Root().Child("cache")
	res, planHit, _, err := s.planFor(ctx, pkey, r.in, sp, false, 0)
	if err != nil {
		ps.End()
		return ValidateResponse{}, s.fail(err)
	}
	if ps != nil {
		ps.SetBool("hit", planHit)
	}
	ps.End()

	vkey := validateKey(pkey, model, trials, req.Target, maxExtra)
	vj := &valJob{sched: res.Schedule, model: model, trials: trials, target: req.Target, maxExtra: maxExtra}
	vs := tr.Root().Child("mc_validate")
	if vs != nil {
		vs.SetInt("trials", int64(trials))
		vs.SetFloat("target", req.Target)
	}
	out, hit, coalesced, err := cachedCompute(ctx, s.vcache, vkey, req.NoCache,
		func(ctx context.Context) (*validateOutcome, error) {
			return s.dispatchValidate(ctx, vkey, r.in, sp, vj)
		})
	if err != nil {
		vs.End()
		return ValidateResponse{}, s.fail(err)
	}
	if vs != nil {
		vs.SetBool("hit", hit)
		vs.SetBool("coalesced", coalesced)
		if out.report != nil {
			vs.SetFloat("delivery_mean", out.report.MeanDeliveryRatio)
		}
	}
	vs.End()
	return ValidateResponse{
		Digest:       r.digest,
		Scheduler:    res.Scheduler,
		Report:       out.report,
		Repair:       out.repair,
		PlanCacheHit: planHit,
		CacheHit:     hit,
		Coalesced:    coalesced,
		Elapsed:      time.Since(start),
	}, nil
}
