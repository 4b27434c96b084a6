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
func validateKey(pkey string, v valJob) string {
	return pkey + "|v|" + v.model.Kind +
		"|" + strconv.FormatFloat(v.model.Rate, 'x', -1, 64) +
		"|" + strconv.FormatUint(v.model.Seed, 10) +
		"|" + strconv.Itoa(v.trials) +
		"|" + strconv.FormatFloat(v.target, 'x', -1, 64) +
		"|" + strconv.Itoa(v.maxExtra)
}

// Validate answers one reliability request: resolve the instance, obtain
// its schedule through the plan cache, then serve the Monte-Carlo report
// from the reliability cache — computing it at most once even under
// concurrent identical requests.
func (s *Service) Validate(ctx context.Context, req ValidateRequest) (ValidateResponse, error) {
	return serve(ctx, s, func(start time.Time) (ValidateResponse, error) {
		sp, err := parseSpec(req.Scheduler, req.Budget)
		if err != nil {
			return ValidateResponse{}, err
		}
		vj, err := req.normalize()
		if err != nil {
			return ValidateResponse{}, err
		}
		r, err := s.resolveStep(ctx, req.WorkloadRequest, sp.kind)
		if err != nil {
			return ValidateResponse{}, err
		}
		pkey := planKey(r.digest, sp)
		s.validations.Add(1)

		// The schedule itself always goes through the plan cache: re-running
		// the search would not change the Monte-Carlo answer, only waste a
		// worker.
		// Only the packed plan is kept: its schedule is materialized on the
		// worker, and only when the report is not cached.
		plan, planHit, _, err := cacheStep(ctx, s.cache, pkey, false, s.planFill(pkey, r.in, sp, 0, nil))
		if err != nil {
			return ValidateResponse{}, err
		}
		out, hit, coalesced, err := s.monteCarlo(ctx, validateKey(pkey, vj), r.in, plan, vj, req.NoCache)
		if err != nil {
			return ValidateResponse{}, err
		}
		return ValidateResponse{
			Digest:       r.digest,
			Scheduler:    plan.Scheduler,
			Report:       out.report,
			Repair:       out.repair,
			PlanCacheHit: planHit,
			CacheHit:     hit,
			Coalesced:    coalesced,
			Elapsed:      time.Since(start),
		}, nil
	})
}

// monteCarlo is Validate's extra step: the Monte-Carlo outcome for vkey
// from the reliability cache, or by one validation on vkey's worker, under
// an "mc_validate" span.
func (s *Service) monteCarlo(ctx context.Context, vkey string, in core.Instance, plan core.Packed, vj valJob, noCache bool) (
	out *validateOutcome, hit, coalesced bool, err error) {
	vs := obs.FromContext(ctx).Root().Child("mc_validate")
	defer vs.End()
	out, hit, coalesced, err = cachedCompute(ctx, s.vcache, vkey, noCache, func(ctx context.Context) (*validateOutcome, error) {
		return onWorker(ctx, s, vkey, func(w *worker) (*validateOutcome, error) {
			return w.validate(s, in, plan, vj)
		})
	})
	if err == nil && vs != nil {
		vs.SetInt("trials", int64(vj.trials))
		vs.SetFloat("target", vj.target)
		vs.SetBool("hit", hit)
		vs.SetBool("coalesced", coalesced)
		vs.SetFloat("delivery_mean", out.report.MeanDeliveryRatio)
	}
	return out, hit, coalesced, err
}

// normalize returns the request's Monte-Carlo parameters: the loss model,
// the default and capped trial count, and the repair target and slot
// budget.
func (req ValidateRequest) normalize() (valJob, error) {
	model, err := req.Loss.Normalize()
	if err != nil {
		return valJob{}, err
	}
	trials := req.Trials
	if trials <= 0 {
		trials = reliability.DefaultTrials
	}
	if trials > MaxValidateTrials {
		return valJob{}, fmt.Errorf("service: %d trials exceeds the cap of %d", trials, MaxValidateTrials)
	}
	if req.Target < 0 || req.Target > 1 {
		return valJob{}, fmt.Errorf("service: repair target %v outside [0, 1]", req.Target)
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
	return valJob{model: model, trials: trials, target: req.Target, maxExtra: maxExtra}, nil
}
