// Package service is the concurrent plan-serving layer: it fronts the
// schedulers with a content-addressed cache and a sharded worker pool so
// many clients can request broadcast plans at once while the PR 1
// allocation discipline survives — every worker goroutine owns its own
// reusable search engine (scratch + memo arenas), and a warm cache hit
// never touches an engine at all.
//
// Request flow, the same for every workload (Plan, Validate, Aggregate,
// Replan):
//
//	serve   → enter (ErrClosed after Close), ctx check, error counting
//	parse   → the workload's own spec (scheduler, loss model, delta…)
//	resolve → instance + digests ("resolve" span)
//	key     → digest|spec[|workload parameters]
//	cache   → hit: the immutable cached answer ("cache" span)
//	        → miss: singleflight-led onWorker closure on the key's shard;
//	          coalesced callers wait for the leader
//
// A job is a plain closure run on the worker goroutine that owns the
// key's shard, so the worker's engines, replanners, convergecast
// schedulers, Monte-Carlo estimator and improver need no lock.
//
// resolve hashes an explicit instance on every request, but a generator
// deployment only once, when it is generated: the deployment cache stores
// the instance together with its broadcast and "agg"-tagged digests, so a
// warm generator hit costs two map probes and no pass over the instance.
//
// The plan cache keeps every plan packed (core.Packed, a few hundred bytes)
// and materializes a fresh *core.Result per read, so a caller owns the plan
// it receives. The other caches' answers (reliability reports, repairs,
// convergecast plans) are shared and immutable: callers must not modify
// them.
package service

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mlbs/internal/aggregate"
	"mlbs/internal/baseline"
	"mlbs/internal/churn"
	"mlbs/internal/core"
	"mlbs/internal/dutycycle"
	"mlbs/internal/graphio"
	"mlbs/internal/improve"
	"mlbs/internal/interference"
	"mlbs/internal/obs"
	"mlbs/internal/plancache"
	"mlbs/internal/reliability"
	"mlbs/internal/topology"
)

// ErrClosed is returned by every workload method after Close.
var ErrClosed = errors.New("service: closed")

// Config sizes the service. The zero value selects the defaults noted on
// each field.
type Config struct {
	// Workers is the number of scheduling goroutines, each owning one
	// reusable engine per scheduler spec it has seen. Default 4.
	Workers int
	// QueueDepth is each worker's job buffer. Default 16.
	QueueDepth int
	// CacheCapacity bounds the plan cache (entries). Default 4096.
	CacheCapacity int
	// ImproveWorkers is the background anytime-improver pool size. 0 (the
	// default) disables background improvement entirely: warm hits with an
	// improve budget are served as-is, exactly the pre-improver behavior.
	// Cold-path synchronous improvement only needs a request budget, not
	// the pool.
	ImproveWorkers int
}

// Fixed sizes of the service's other caches and queues.
const (
	// cacheShards is the plan cache's shard count.
	cacheShards = 16
	// genCacheCapacity bounds the generated-deployment cache that backs
	// Generator requests.
	genCacheCapacity = 256
	// validateCacheCapacity bounds the reliability-report cache that backs
	// Validate requests.
	validateCacheCapacity = 1024
	// replanCacheCapacity bounds the repaired-plan cache keyed by (base
	// digest, delta digest) that backs Replan requests.
	replanCacheCapacity = 1024
	// aggregateCacheCapacity bounds the convergecast-plan cache that backs
	// Aggregate requests.
	aggregateCacheCapacity = 1024
	// improveQueue bounds the background improvement queue; a full queue
	// drops the upgrade request (counted, never blocks a Plan).
	improveQueue = 64
)

// Generator asks the service to build the instance itself from the
// paper's topology family — the request form remote clients use when they
// don't want to ship a full instance encoding.
type Generator struct {
	// N is the node count of the paper deployment (Section V-A setting).
	N int `json:"n"`
	// Seed is the deployment seed.
	Seed uint64 `json:"seed"`
	// DutyRate r selects the duty-cycle system when > 1; 0 or 1 is the
	// round-based synchronous system.
	DutyRate int `json:"r,omitempty"`
	// WakeSeed seeds the uniform wake schedule; 0 derives Seed^0xA5, the
	// same convention mlb-run uses.
	WakeSeed uint64 `json:"wake_seed,omitempty"`
	// Channels is the orthogonal-channel count K of the generated
	// instance; 0 and 1 both select the single-channel system.
	Channels int `json:"channels,omitempty"`
	// SINR selects the physical interference model for the generated
	// instance: all three zero (the default) keeps the paper's protocol
	// model; any nonzero field requires SINRBeta > 0. Per-node powers are
	// not exposed here — ship a full Instance encoding for those.
	SINRAlpha float64 `json:"sinr_alpha,omitempty"`
	SINRBeta  float64 `json:"sinr_beta,omitempty"`
	SINRNoise float64 `json:"sinr_noise,omitempty"`
}

// Instance builds the generator's instance: the paper deployment, on the
// uniform duty cycle when DutyRate > 1, with the requested channels and
// SINR model. It is deterministic in the generator's fields, so a client
// can rebuild exactly the instance the service planned.
func (g Generator) Instance() (core.Instance, error) {
	if g.N < 1 {
		return core.Instance{}, fmt.Errorf("service: generator node count %d", g.N)
	}
	if g.Channels < 0 || g.Channels > core.MaxChannels {
		return core.Instance{}, fmt.Errorf("service: generator channel count %d outside [0,%d]", g.Channels, core.MaxChannels)
	}
	var sinr *interference.SINRParams
	if g.SINRAlpha != 0 || g.SINRBeta != 0 || g.SINRNoise != 0 {
		sinr = &interference.SINRParams{Alpha: g.SINRAlpha, Beta: g.SINRBeta, Noise: g.SINRNoise}
		if err := sinr.Validate(g.N); err != nil {
			return core.Instance{}, fmt.Errorf("service: %w", err)
		}
	}
	dep, err := topology.Generate(topology.PaperConfig(g.N), g.Seed)
	if err != nil {
		return core.Instance{}, err
	}
	var in core.Instance
	if g.DutyRate > 1 {
		ws := g.WakeSeed
		if ws == 0 {
			ws = g.Seed ^ 0xA5
		}
		in = core.Async(dep.G, dep.Source, dutycycle.NewUniform(g.N, g.DutyRate, ws, 0), 0)
	} else {
		in = core.Sync(dep.G, dep.Source)
	}
	if g.Channels > 1 {
		in.Channels = g.Channels // K=1 is stored as 0, the canonical single-channel form
	}
	in.SINR = sinr
	return in, nil
}

// WorkloadRequest is the shared request envelope of every workload the
// service answers — plan, aggregate, validate, replan. It selects the
// instance (exactly one of Instance and Generator must be set, with the
// generator carrying the duty-cycle/channel/SINR knobs), the scheduler,
// and the caching discipline. Endpoint-specific request types embed it
// and add their own fields on top.
type WorkloadRequest struct {
	Instance  *core.Instance
	Generator *Generator
	// Scheduler selects the planning algorithm. For broadcast plans: gopt
	// (default), opt, emodel, energy, baseline (resolves to the 26- or
	// 17-approximation by wake system). For aggregation: agg-spt (default)
	// or agg-bounded.
	Scheduler string
	// Budget caps search effort for gopt/opt; 0 selects the default.
	Budget int
	// NoCache bypasses the endpoint's own cache lookup (the result is
	// still stored) — load generators use it to measure the cold path.
	NoCache bool
	// ImproveBudget is the anytime-improvement budget for workloads that
	// support it (plans only today). 0 (the default) keeps the
	// pre-improver serving path bit-identical. On a cache miss the budget
	// is spent synchronously after the base search, so the caller's first
	// answer is already tightened; on a hit the cached plan is served
	// instantly and a background upgrade is enqueued (when the pool is
	// enabled and the plan is not already exact), re-published under the
	// same key with the next Generation. The budget is deliberately not
	// part of the cache key: all budgets share one entry per (digest,
	// scheduler), which is what lets generations accumulate.
	ImproveBudget time.Duration
}

// Response is one plan answer. Result is immutable, fresh per read.
type Response struct {
	Digest    string
	Scheduler string
	Result    *core.Result
	CacheHit  bool
	Coalesced bool
	Elapsed   time.Duration
}

// Metrics is a point-in-time snapshot of service traffic.
type Metrics struct {
	Requests     int64
	Hits         int64
	Misses       int64
	Coalesced    int64
	Searches     int64
	Errors       int64
	Evictions    int64
	CacheEntries int
	// CacheCapacity is the plan cache's entry bound, paired with
	// CacheEntries so occupancy is a ratio, not a bare count.
	CacheCapacity int
	// Engine totals accumulated across every search the service ran
	// (plans, cold replans): branch-and-bound states expanded and memo
	// hits. These are the search-internal counters behind
	// mlbs_engine_states_total.
	EngineStates   int64
	EngineMemoHits int64
	// Validation traffic: request count, Monte-Carlo replays executed, and
	// the reliability-report cache's counters.
	Validations      int64
	MonteCarloTrials int64
	ValidateHits     int64
	ValidateMisses   int64
	ValidateEntries  int
	// Aggregation traffic: convergecast request count, scheduler runs
	// actually executed (misses), and the convergecast-plan cache's
	// counters.
	Aggregates       int64
	AggSearches      int64
	AggregateHits    int64
	AggregateMisses  int64
	AggregateEntries int
	// Churn traffic: replan request count, computed repairs by strategy
	// (see churn.Strategy), and the replan cache's counters.
	Replans           int64
	ReplanPrefix      int64
	ReplanIncremental int64
	ReplanCold        int64
	ReplanHits        int64
	ReplanMisses      int64
	ReplanEntries     int
	// Anytime-improvement traffic: accepted upgrades (sync + background
	// publications), total latency slots shaved off served plans, and the
	// background queue's accounting. Generations histograms publications
	// by the generation they produced (bucket i counts generation i;
	// the last bucket absorbs everything beyond).
	Improvements      int64
	ImproveSlotsSaved int64
	ImproveQueued     int64
	ImproveDropped    int64
	// ImproveQueueDepth is the background improver queue's current
	// occupancy (0 when the pool is disabled).
	ImproveQueueDepth int
	Generations       [improveGenBuckets]int64
	// HitLatency/MissLatency are the hit and miss latency distributions
	// on the Prometheus power-of-two edges — the data behind the
	// _bucket/_sum/_count series /metrics emits.
	HitLatency  obs.HistogramSnapshot
	MissLatency obs.HistogramSnapshot
	HitP50      time.Duration
	HitP99      time.Duration
	MissP50     time.Duration
	MissP99     time.Duration
	P50         time.Duration
	P99         time.Duration
}

// spec is a normalized scheduler selection — part of the cache key and the
// per-worker engine map key.
type spec struct {
	kind   string
	budget int
}

func parseSpec(name string, budget int) (spec, error) {
	if name == "" {
		name = "gopt"
	}
	switch name {
	case "gopt", "opt":
		if budget <= 0 {
			budget = core.DefaultBudget
		}
		return spec{kind: name, budget: budget}, nil
	case "emodel", "energy", "baseline":
		return spec{kind: name}, nil
	default:
		return spec{}, fmt.Errorf("service: unknown scheduler %q (want gopt|opt|emodel|energy|baseline)", name)
	}
}

// valJob carries one Monte-Carlo validation's loss-model parameters.
type valJob struct {
	model    reliability.LossModel
	trials   int
	target   float64
	maxExtra int
}

// validateOutcome is the cached product of one validation: the estimate,
// plus the repair result when a target was requested.
type validateOutcome struct {
	report *reliability.Report
	repair *reliability.RepairResult
}

// worker owns one goroutine and the reusable state its jobs run on: the
// engines, replanners, convergecast schedulers, Monte-Carlo estimator and
// improver are touched only from the worker's own goroutine, so no lock
// guards them and their arenas stay warm call after call.
type worker struct {
	jobs       chan func(*worker)
	engines    map[spec]core.Scheduler
	replanners map[spec]*churn.Replanner
	aggs       map[string]*aggregate.Scheduler
	est        *reliability.Estimator
	imp        *improve.Improver
}

func (w *worker) run(s *Service) {
	defer s.wg.Done()
	for job := range w.jobs {
		job(w)
	}
}

// onWorker runs fn on the worker goroutine that owns key's shard and waits
// for its result. Once queued the job runs to completion (its budget or
// trial count bounds the time); ctx only guards the queueing itself.
func onWorker[V any](ctx context.Context, s *Service, key string, fn func(*worker) (V, error)) (V, error) {
	// plancache.KeyHash, not a local hash: worker selection deliberately
	// co-shards with the cache so repeats of an instance land on the
	// worker whose engine/estimator arenas are already sized for it.
	w := s.workers[int(plancache.KeyHash(key)%uint64(len(s.workers)))]
	var (
		val  V
		err  error
		done = make(chan struct{})
	)
	select {
	case w.jobs <- func(w *worker) {
		val, err = fn(w)
		close(done)
	}:
	case <-ctx.Done():
		return val, ctx.Err()
	}
	<-done
	return val, err
}

// validate runs one Monte-Carlo validation on the worker's reusable
// estimator. Trials run single-threaded here — the pool provides the
// concurrency across requests, and the report is identical either way.
// The packed plan's schedule is materialized here, so only a report that
// is actually computed pays for it; Repair never mutates the schedule.
func (w *worker) validate(s *Service, in core.Instance, plan core.Packed, v valJob) (*validateOutcome, error) {
	if w.est == nil {
		w.est = reliability.NewEstimator()
	}
	sched := plan.Result().Schedule
	out := &validateOutcome{}
	if v.target > 0 {
		rr, err := w.est.Repair(in, sched, v.model, reliability.RepairConfig{
			Target:        v.target,
			Trials:        v.trials,
			Workers:       1,
			MaxExtraSlots: v.maxExtra,
		})
		if err != nil {
			return nil, err
		}
		out.report, out.repair = rr.After, rr
	} else {
		rep, err := w.est.Estimate(in, sched, v.model, reliability.Config{Trials: v.trials, Workers: 1})
		if err != nil {
			return nil, err
		}
		out.report = rep
	}
	// Repair re-estimates once per round on top of the baseline estimate;
	// count every replay actually run.
	batches := int64(1)
	if out.repair != nil {
		batches = int64(out.repair.Rounds) + 1
	}
	s.mcTrials.Add(int64(v.trials) * batches)
	return out, nil
}

// plan runs one search on the worker's reusable engine for sp,
// then spends the synchronous improve budget on its result. tr is the
// requesting caller's trace (nil for untraced requests); using it on the
// worker goroutine is safe because every span operation takes the trace's
// own mutex. Under singleflight only the leader's computation reaches the
// worker, so exactly one trace collects the worker-side spans.
func (w *worker) plan(s *Service, tr *obs.Trace, in core.Instance, sp spec, budget time.Duration) (*core.Result, error) {
	search := tr.Root().Child("search")
	sched := w.scheduler(resolveSpec(sp, in))
	var res *core.Result
	var err error
	if en, ok := sched.(*core.Engine); ok && tr != nil {
		// Traced searches collect the per-depth profile; the plain path
		// runs exactly the pre-observability search so untraced results
		// keep their historic encodings.
		res, err = en.ScheduleProfiled(in)
	} else {
		res, err = sched.Schedule(in)
	}
	if err != nil {
		search.End()
		return res, err
	}
	s.searches.Add(1)
	s.engineStates.Add(int64(res.Stats.Expanded))
	s.engineMemoHits.Add(int64(res.Stats.MemoHits))
	search.SetStr("scheduler", res.Scheduler)
	search.SetInt("end_slot", int64(res.Schedule.End()))
	search.SetBool("exact", res.Exact)
	search.SetInt("expanded", int64(res.Stats.Expanded))
	search.SetInt("memo_hits", int64(res.Stats.MemoHits))
	search.SetInt("memo_entries", int64(res.Stats.MemoEntries))
	if n := len(res.Stats.Depths); n > 0 {
		search.SetInt("search_depth", int64(n))
	}
	search.End()

	isp := tr.Root().Child("improve")
	isp.SetInt("budget_ns", int64(budget))
	if budget <= 0 || res.Exact {
		isp.SetBool("skipped", true)
		isp.End()
		return res, nil
	}
	// Cold-path synchronous improvement: the first answer for this key is
	// already tightened before it is stored, so even a cache-cold client
	// with a budget never sees the raw approximation. Published as
	// Generation 0 — it IS the first plan under this key.
	if w.imp == nil {
		w.imp = improve.New()
	}
	out, st, ierr := w.imp.Improve(in, res.Schedule, improve.Options{Deadline: budget})
	setImproveAttrs(isp, st)
	isp.End()
	if ierr != nil || (st.SlotsSaved == 0 && !st.Exact) {
		// An improver failure is a quality loss, not a serving failure:
		// fall back to the unimproved result.
		return res, nil
	}
	next := *res
	if st.SlotsSaved > 0 {
		next.Schedule = out
		next.PA = out.End()
		next.Improved = true
		s.improvements.Add(1)
		s.improveSlotsSaved.Add(int64(st.SlotsSaved))
		s.genHist[0].Add(1)
	}
	// A greedy-optimality proof from the full-tail search upgrades Exact
	// honestly: no greedy-move schedule ends before this one.
	next.Exact = next.Exact || st.Exact
	return &next, nil
}

// setImproveAttrs annotates an improve span with the run's aggregate and
// per-neighborhood statistics. A no-op on the nil span.
func setImproveAttrs(sp *obs.Span, st improve.Stats) {
	if sp == nil {
		return
	}
	sp.SetInt("moves", int64(st.Moves))
	sp.SetInt("accepted", int64(st.Accepted))
	sp.SetInt("slots_saved", int64(st.SlotsSaved))
	sp.SetInt("expanded", int64(st.Expanded))
	sp.SetBool("exact", st.Exact)
	sp.SetBool("converged", st.Converged)
	for _, kind := range []struct {
		name string
		ms   improve.MoveStats
	}{
		{"norm", st.Norm}, {"tail", st.Tail}, {"merge", st.Merge}, {"shift", st.Shift},
	} {
		if kind.ms.Attempted == 0 {
			continue
		}
		sp.SetInt(kind.name+"_attempted", int64(kind.ms.Attempted))
		sp.SetInt(kind.name+"_accepted", int64(kind.ms.Accepted))
		if kind.ms.SlotsSaved > 0 {
			sp.SetInt(kind.name+"_slots_saved", int64(kind.ms.SlotsSaved))
		}
	}
}

// resolveSpec maps the generic "baseline" selection onto the
// system-specific baseline, by the instance's wake system like mlb-run
// does.
func resolveSpec(sp spec, in core.Instance) spec {
	if sp.kind == "baseline" {
		if in.Wake.Rate() > 1 {
			sp.kind = "baseline17"
		} else {
			sp.kind = "baseline26"
		}
	}
	return sp
}

// scheduler returns the worker's reusable engine for a resolved spec,
// building it on first use. Only the worker's own goroutine calls this.
func (w *worker) scheduler(sp spec) core.Scheduler {
	sched, ok := w.engines[sp]
	if !ok {
		sched = newScheduler(sp)
		w.engines[sp] = sched
	}
	return sched
}

func newScheduler(sp spec) core.Scheduler {
	switch sp.kind {
	case "gopt":
		return core.NewGOPT(sp.budget).NewEngine()
	case "opt":
		return core.NewOPT(sp.budget, 0).NewEngine()
	case "emodel":
		return core.NewEModel()
	case "energy":
		return core.NewEnergyAware()
	case "baseline26":
		return baseline.New26()
	case "baseline17":
		return baseline.New17()
	default:
		panic("service: unreachable scheduler kind " + sp.kind)
	}
}

// Service serves broadcast plans concurrently. Build with New; Close when
// done.
type Service struct {
	cache   *plancache.Cache[core.Packed]
	gens    *plancache.Cache[resolved]
	vcache  *plancache.Cache[*validateOutcome]
	rcache  *plancache.Cache[*replanOutcome]
	acache  *plancache.Cache[*aggregate.Result]
	workers []*worker
	wg      sync.WaitGroup

	mu       sync.RWMutex // guards closed against in-flight Plan entries
	closed   bool
	inflight sync.WaitGroup

	// Background anytime-improvement pool. improving dedupes upgrades per
	// plan key: a key already queued or running is not enqueued again, so
	// a hot key under heavy hit traffic costs at most one inflight
	// improver no matter how many requests carry a budget.
	improveJobs chan improveJob
	improveWg   sync.WaitGroup
	improveMu   sync.Mutex
	improving   map[string]struct{}

	requests          atomic.Int64
	aggregates        atomic.Int64
	aggSearches       atomic.Int64
	searches          atomic.Int64
	engineStates      atomic.Int64
	engineMemoHits    atomic.Int64
	validations       atomic.Int64
	mcTrials          atomic.Int64
	replans           atomic.Int64
	replanPrefix      atomic.Int64
	replanIncremental atomic.Int64
	replanCold        atomic.Int64
	errs              atomic.Int64
	improvements      atomic.Int64
	improveSlotsSaved atomic.Int64
	improveQueued     atomic.Int64
	improveDropped    atomic.Int64
	genHist           [improveGenBuckets]atomic.Int64
	hitHist           obs.Histogram
	missHist          obs.Histogram
}

// improveGenBuckets sizes the generation histogram: bucket i counts
// publications at generation i, with the final bucket absorbing the tail.
// Generations beyond a handful mean the improver keeps finding slack on a
// hot key — worth an operator's eye, not worth unbounded counters.
const improveGenBuckets = 8

// improveJob asks the background pool to upgrade the plan cached under key.
type improveJob struct {
	key    string
	in     core.Instance
	budget time.Duration
}

// New builds and starts a service.
func New(cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	s := &Service{
		cache:  plancache.New[core.Packed](cfg.CacheCapacity, cacheShards),
		gens:   plancache.New[resolved](genCacheCapacity, 4),
		vcache: plancache.New[*validateOutcome](validateCacheCapacity, 8),
		rcache: plancache.New[*replanOutcome](replanCacheCapacity, 8),
		acache: plancache.New[*aggregate.Result](aggregateCacheCapacity, 8),
	}
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{
			jobs:       make(chan func(*worker), cfg.QueueDepth),
			engines:    make(map[spec]core.Scheduler),
			replanners: make(map[spec]*churn.Replanner),
			aggs:       make(map[string]*aggregate.Scheduler),
		}
		s.workers = append(s.workers, w)
		s.wg.Add(1)
		go w.run(s)
	}
	if cfg.ImproveWorkers > 0 {
		s.improveJobs = make(chan improveJob, improveQueue)
		s.improving = make(map[string]struct{})
		for i := 0; i < cfg.ImproveWorkers; i++ {
			s.improveWg.Add(1)
			go s.runImprover()
		}
	}
	return s
}

// runImprover is one background pool goroutine: it owns a reusable
// improver and upgrades cached plans in place, re-publishing every
// accepted move through the cache's atomic Update so readers always see a
// monotone (generation, end-slot) pair.
func (s *Service) runImprover() {
	defer s.improveWg.Done()
	imp := improve.New()
	for jb := range s.improveJobs {
		s.upgrade(imp, jb)
		s.improveMu.Lock()
		delete(s.improving, jb.key)
		s.improveMu.Unlock()
	}
}

// upgrade runs one background improvement against the plan currently
// cached under jb.key. Peek (not Get) reads it: a maintenance probe must
// not distort hit/miss accounting or entry recency. Each accepted move is
// published immediately — anytime semantics means a client hitting the key
// mid-run gets the best schedule found so far, not the best at enqueue
// time. Update never inserts, so an upgrade racing an eviction drops
// instead of resurrecting the entry.
func (s *Service) upgrade(imp *improve.Improver, jb improveJob) {
	cur, ok := s.cache.Peek(jb.key)
	if !ok || cur.Exact {
		return
	}
	base := cur.Result()
	publish := func(sched *core.Schedule, exact bool) {
		// Packed here, before the shard lock: Update only compares header
		// fields and swaps values.
		up := *base
		up.Schedule = sched
		up.PA = sched.End()
		up.Improved = true
		up.Exact = exact
		next := core.Pack(&up)
		s.cache.Update(jb.key, func(res core.Packed) (core.Packed, bool) {
			if next.End >= res.End {
				// A concurrent writer (another budget's cold compute, a
				// replan publication) got here with an equal or better
				// plan; never regress, never bump the generation for a
				// non-improvement.
				if exact && next.End == res.End && !res.Exact {
					res.Exact = true
					return res, true
				}
				return res, false
			}
			next.Generation = res.Generation + 1
			s.improvements.Add(1)
			s.improveSlotsSaved.Add(int64(res.End - next.End))
			b := next.Generation
			if b >= improveGenBuckets {
				b = improveGenBuckets - 1
			}
			s.genHist[b].Add(1)
			return next, true
		})
	}
	out, st, err := imp.Improve(jb.in, base.Schedule, improve.Options{
		Deadline: jb.budget,
		OnImprove: func(sched *core.Schedule, snap improve.Stats) {
			publish(sched, false)
		},
	})
	if err != nil {
		return
	}
	if st.Exact {
		// The full-tail search proved no greedy schedule beats out; stamp
		// the entry exact if it still holds a plan at that end slot.
		publish(out, true)
	}
}

// enqueueImprove is Plan's extra step on a warm hit with a budget: ask
// the background pool to upgrade key (serving generation gen), deduping
// against upgrades already queued or running, under an "improve_enqueue"
// span. Never blocks: a full queue counts a drop and moves on —
// improvement is best-effort, serving is not.
func (s *Service) enqueueImprove(ctx context.Context, key string, in core.Instance, budget time.Duration, gen int) {
	qs := obs.FromContext(ctx).Root().Child("improve_enqueue")
	defer qs.End()
	if qs != nil {
		qs.SetInt("generation", int64(gen))
		qs.SetInt("budget_ns", int64(budget))
		qs.SetInt("queue_depth", int64(len(s.improveJobs)))
	}
	if s.improveJobs == nil {
		return
	}
	s.improveMu.Lock()
	if _, busy := s.improving[key]; busy {
		s.improveMu.Unlock()
		return
	}
	s.improving[key] = struct{}{}
	s.improveMu.Unlock()
	select {
	case s.improveJobs <- improveJob{key: key, in: in, budget: budget}:
		s.improveQueued.Add(1)
	default:
		s.improveMu.Lock()
		delete(s.improving, key)
		s.improveMu.Unlock()
		s.improveDropped.Add(1)
	}
}

// Close waits for in-flight requests, stops the workers, and makes further
// Plan calls fail with ErrClosed.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.inflight.Wait()
	for _, w := range s.workers {
		close(w.jobs)
	}
	s.wg.Wait()
	// No Plan is in flight and the workers are gone, so nothing can
	// enqueue another upgrade; drain the background pool last.
	if s.improveJobs != nil {
		close(s.improveJobs)
		s.improveWg.Wait()
	}
}

// enter registers an in-flight request; it fails once Close has begun.
func (s *Service) enter() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	s.inflight.Add(1)
	return nil
}

// serve is the entry and exit every workload method shares: it registers
// the request (ErrClosed once Close has begun), rejects a request whose
// ctx is already done, runs fn with the request's start time, and counts
// every error after enter in Metrics.Errors — the success path never
// touches that counter.
func serve[R any](ctx context.Context, s *Service, fn func(start time.Time) (R, error)) (R, error) {
	start := time.Now()
	var zero R
	if err := s.enter(); err != nil {
		return zero, err
	}
	defer s.inflight.Done()
	err := ctx.Err()
	if err == nil {
		var r R
		if r, err = fn(start); err == nil {
			return r, nil
		}
	}
	s.errs.Add(1)
	return zero, err
}

// resolved is a request's instance together with its content addresses,
// both as hex: digest is the broadcast digest (plan, validate and replan
// keys), aggDigest the "agg"-tagged one (aggregate keys).
type resolved struct {
	in        core.Instance
	digest    string
	aggDigest string
}

// digested hashes in once for both of its digests.
func digested(in core.Instance) (resolved, error) {
	d, agg, err := graphio.InstanceDigests(in)
	if err != nil {
		return resolved{}, err
	}
	return resolved{in: in, digest: d.String(), aggDigest: agg.String()}, nil
}

// resolve materializes the request's instance and its digests. Generator
// requests are served from the deployment cache, so repeat generator
// traffic neither re-samples the topology nor re-hashes it.
func (s *Service) resolve(req WorkloadRequest) (resolved, error) {
	switch {
	case req.Instance != nil && req.Generator != nil:
		return resolved{}, errors.New("service: request sets both Instance and Generator")
	case req.Instance != nil:
		return digested(*req.Instance)
	case req.Generator == nil:
		return resolved{}, errors.New("service: request sets neither Instance nor Generator")
	}
	gen := *req.Generator
	if gen.Channels == 1 {
		gen.Channels = 0 // canonical single-channel form, one cache entry
	}
	key := "gen|" + strconv.Itoa(gen.N) + "|" + strconv.FormatUint(gen.Seed, 10) +
		"|" + strconv.Itoa(gen.DutyRate) + "|" + strconv.FormatUint(gen.WakeSeed, 10) +
		"|" + strconv.Itoa(gen.Channels) +
		"|" + strconv.FormatFloat(gen.SINRAlpha, 'g', -1, 64) +
		"|" + strconv.FormatFloat(gen.SINRBeta, 'g', -1, 64) +
		"|" + strconv.FormatFloat(gen.SINRNoise, 'g', -1, 64)
	r, _, _, err := s.gens.GetOrCompute(key, func() (resolved, error) {
		in, err := gen.Instance()
		if err != nil {
			return resolved{}, err
		}
		return digested(in)
	})
	return r, err
}

// resolveStep is the resolve phase every workload shares: resolve under a
// "resolve" span annotated with the node count and the scheduler kind.
func (s *Service) resolveStep(ctx context.Context, req WorkloadRequest, kind string) (resolved, error) {
	rs := obs.FromContext(ctx).Root().Child("resolve")
	defer rs.End()
	r, err := s.resolve(req)
	if err == nil && rs != nil {
		rs.SetInt("nodes", int64(r.in.G.N()))
		rs.SetStr("scheduler", kind)
	}
	return r, err
}

// planKey is the plan-cache key of a hex instance digest under a
// scheduler spec.
func planKey(digest string, sp spec) string {
	return digest + "|" + sp.kind + "|" + strconv.Itoa(sp.budget)
}

// cachedCompute is the shared serving discipline of every content-
// addressed cache in the service: serve key from c, computing at most
// once even under concurrent identical requests. noCache bypasses the
// lookup but still stores the result. The computation always runs with a
// context detached from the caller's cancellation — it is shared by every
// coalesced waiter, so it must not die with the leader's request context
// (a leader disconnecting would fail N−1 innocent callers).
func cachedCompute[V any](ctx context.Context, c *plancache.Cache[V], key string, noCache bool,
	compute func(context.Context) (V, error)) (val V, hit, coalesced bool, err error) {
	if noCache {
		// Nothing is shared on the bypass path — the lone caller's own
		// context governs its computation.
		val, err = compute(ctx)
		if err == nil {
			c.Put(key, val)
		}
		return val, false, false, err
	}
	shared := context.WithoutCancel(ctx)
	return c.GetOrCompute(key, func() (V, error) {
		return compute(shared)
	})
}

// cacheStep is the cache phase every workload shares: cachedCompute
// under a "cache" span that records whether the answer hit the cache or
// coalesced onto another caller's computation.
func cacheStep[V any](ctx context.Context, c *plancache.Cache[V], key string, noCache bool,
	compute func(context.Context) (V, error)) (val V, hit, coalesced bool, err error) {
	cs := obs.FromContext(ctx).Root().Child("cache")
	defer cs.End()
	val, hit, coalesced, err = cachedCompute(ctx, c, key, noCache, compute)
	if err == nil {
		cs.SetBool("hit", hit)
		cs.SetBool("coalesced", coalesced)
	}
	return val, hit, coalesced, err
}

// planFill computes the plan behind key for the plan cache: one search on
// key's worker, packed for storage. When fresh is not nil, the caller whose
// fill actually ran (the singleflight leader, or a NoCache caller) also
// gets the Result itself in *fresh and serves it without unpacking. The
// caller's trace rides the closure onto the worker.
func (s *Service) planFill(key string, in core.Instance, sp spec, budget time.Duration, fresh **core.Result) func(context.Context) (core.Packed, error) {
	return func(ctx context.Context) (core.Packed, error) {
		tr := obs.FromContext(ctx)
		res, err := onWorker(ctx, s, key, func(w *worker) (*core.Result, error) {
			return w.plan(s, tr, in, sp, budget)
		})
		if err != nil {
			return core.Packed{}, err
		}
		if fresh != nil {
			*fresh = res
		}
		return core.Pack(res), nil
	}
}

// Plan answers one request: from the cache when the instance has been
// planned before, otherwise by exactly one search even under concurrent
// identical requests.
func (s *Service) Plan(ctx context.Context, req WorkloadRequest) (Response, error) {
	return serve(ctx, s, func(start time.Time) (Response, error) {
		sp, err := parseSpec(req.Scheduler, req.Budget)
		if err != nil {
			return Response{}, err
		}
		r, err := s.resolveStep(ctx, req, sp.kind)
		if err != nil {
			return Response{}, err
		}
		key := planKey(r.digest, sp)
		s.requests.Add(1)
		var res *core.Result
		p, hit, coalesced, err := cacheStep(ctx, s.cache, key, req.NoCache,
			s.planFill(key, r.in, sp, req.ImproveBudget, &res))
		if err != nil {
			return Response{}, err
		}
		if res == nil {
			res = p.Result()
		}
		elapsed := time.Since(start)
		if hit {
			s.hitHist.Observe(elapsed)
			// Serve best-so-far instantly, improve in the background: a warm
			// hit with a budget never pays for its own improvement, it funds
			// the next reader's. Already-exact plans have nothing left.
			if req.ImproveBudget > 0 && !p.Exact {
				s.enqueueImprove(ctx, key, r.in, req.ImproveBudget, p.Generation)
			}
		} else {
			s.missHist.Observe(elapsed)
		}
		return Response{
			Digest:    r.digest,
			Scheduler: res.Scheduler,
			Result:    res,
			CacheHit:  hit,
			Coalesced: coalesced,
			Elapsed:   elapsed,
		}, nil
	})
}

// SweepRequest is a streaming parameter sweep over the paper topology
// family: the cross product of Sizes × Seeds, one plan per cell.
type SweepRequest struct {
	Sizes     []int    `json:"sizes"`
	Seeds     []uint64 `json:"seeds"`
	DutyRate  int      `json:"r,omitempty"`
	WakeSeed  uint64   `json:"wake_seed,omitempty"`
	Channels  int      `json:"channels,omitempty"`
	SINRAlpha float64  `json:"sinr_alpha,omitempty"`
	SINRBeta  float64  `json:"sinr_beta,omitempty"`
	SINRNoise float64  `json:"sinr_noise,omitempty"`
	Scheduler string   `json:"scheduler,omitempty"`
	Budget    int      `json:"budget,omitempty"`
	NoCache   bool     `json:"no_cache,omitempty"`
}

// SweepItem is one streamed sweep result.
type SweepItem struct {
	N         int    `json:"n"`
	Seed      uint64 `json:"seed"`
	Digest    string `json:"digest,omitempty"`
	Scheduler string `json:"scheduler,omitempty"`
	PA        int    `json:"pa"`
	Latency   int    `json:"latency"`
	Exact     bool   `json:"exact"`
	CacheHit  bool   `json:"cache_hit"`
	Coalesced bool   `json:"coalesced"`
	ElapsedNs int64  `json:"elapsed_ns"`
	Err       string `json:"error,omitempty"`
}

// Sweep plans every (size, seed) cell and streams each result through emit
// as soon as it is ready. A failing cell is reported in its item and the
// sweep continues; emit returning an error, or ctx expiring, stops it.
func (s *Service) Sweep(ctx context.Context, req SweepRequest, emit func(SweepItem) error) error {
	// Request-level mistakes fail the sweep before its first item, so a
	// caller can still report them instead of streaming one error per cell.
	if len(req.Sizes) == 0 {
		return errors.New("service: sweep needs at least one size")
	}
	if _, err := parseSpec(req.Scheduler, req.Budget); err != nil {
		return err
	}
	seeds := req.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}
	for _, n := range req.Sizes {
		for _, seed := range seeds {
			if err := ctx.Err(); err != nil {
				return err
			}
			resp, err := s.Plan(ctx, WorkloadRequest{
				Generator: &Generator{N: n, Seed: seed, DutyRate: req.DutyRate, WakeSeed: req.WakeSeed, Channels: req.Channels,
					SINRAlpha: req.SINRAlpha, SINRBeta: req.SINRBeta, SINRNoise: req.SINRNoise},
				Scheduler: req.Scheduler,
				Budget:    req.Budget,
				NoCache:   req.NoCache,
			})
			item := SweepItem{N: n, Seed: seed}
			if err != nil {
				item.Err = err.Error()
			} else {
				item.Digest = resp.Digest
				item.Scheduler = resp.Scheduler
				item.PA = resp.Result.PA
				item.Latency = resp.Result.Schedule.Latency()
				item.Exact = resp.Result.Exact
				item.CacheHit = resp.CacheHit
				item.Coalesced = resp.Coalesced
				item.ElapsedNs = resp.Elapsed.Nanoseconds()
			}
			if err := emit(item); err != nil {
				return err
			}
		}
	}
	return nil
}

// Metrics snapshots the service counters and latency percentiles.
func (s *Service) Metrics() Metrics {
	cs := s.cache.Stats()
	vs := s.vcache.Stats()
	rs := s.rcache.Stats()
	as := s.acache.Stats()
	var all obs.Histogram
	all.Merge(&s.hitHist)
	all.Merge(&s.missHist)
	var gens [improveGenBuckets]int64
	for i := range gens {
		gens[i] = s.genHist[i].Load()
	}
	return Metrics{
		Requests:          s.requests.Load(),
		Hits:              cs.Hits,
		Misses:            cs.Misses,
		Coalesced:         cs.Coalesced,
		Searches:          s.searches.Load(),
		EngineStates:      s.engineStates.Load(),
		EngineMemoHits:    s.engineMemoHits.Load(),
		Errors:            s.errs.Load(),
		Evictions:         cs.Evictions,
		CacheEntries:      cs.Entries,
		CacheCapacity:     cs.Capacity,
		Validations:       s.validations.Load(),
		MonteCarloTrials:  s.mcTrials.Load(),
		ValidateHits:      vs.Hits,
		ValidateMisses:    vs.Misses,
		ValidateEntries:   vs.Entries,
		Aggregates:        s.aggregates.Load(),
		AggSearches:       s.aggSearches.Load(),
		AggregateHits:     as.Hits,
		AggregateMisses:   as.Misses,
		AggregateEntries:  as.Entries,
		Replans:           s.replans.Load(),
		ReplanPrefix:      s.replanPrefix.Load(),
		ReplanIncremental: s.replanIncremental.Load(),
		ReplanCold:        s.replanCold.Load(),
		ReplanHits:        rs.Hits,
		ReplanMisses:      rs.Misses,
		ReplanEntries:     rs.Entries,
		Improvements:      s.improvements.Load(),
		ImproveSlotsSaved: s.improveSlotsSaved.Load(),
		ImproveQueued:     s.improveQueued.Load(),
		ImproveDropped:    s.improveDropped.Load(),
		ImproveQueueDepth: len(s.improveJobs),
		Generations:       gens,
		HitLatency:        s.hitHist.Snapshot(),
		MissLatency:       s.missHist.Snapshot(),
		HitP50:            s.hitHist.Percentile(0.50),
		HitP99:            s.hitHist.Percentile(0.99),
		MissP50:           s.missHist.Percentile(0.50),
		MissP99:           s.missHist.Percentile(0.99),
		P50:               all.Percentile(0.50),
		P99:               all.Percentile(0.99),
	}
}
