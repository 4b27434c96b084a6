// Package service is the concurrent plan-serving layer: it fronts the
// schedulers with a content-addressed cache and a sharded worker pool so
// many clients can request broadcast plans at once while the PR 1
// allocation discipline survives — every worker goroutine owns its own
// reusable search engine (scratch + memo arenas), and a warm cache hit
// never touches an engine at all.
//
// Request flow:
//
//	Plan → resolve instance → InstanceDigest → cache key (digest|scheduler)
//	     → hit: return the immutable cached Result
//	     → miss: singleflight-dispatch one search onto the worker shard
//	       picked by the key; coalesced callers wait for the leader.
//
// Results handed out by the service are shared and immutable: callers must
// not modify the schedules they receive.
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
	"mlbs/internal/emodel"
	"mlbs/internal/graphio"
	"mlbs/internal/improve"
	"mlbs/internal/interference"
	"mlbs/internal/obs"
	"mlbs/internal/plancache"
	"mlbs/internal/reliability"
	"mlbs/internal/topology"
)

// ErrClosed is returned by Plan after Close.
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
	// CacheShards is the plan cache's shard count. Default 16.
	CacheShards int
	// GenCacheCapacity bounds the generated-deployment cache that backs
	// Generator requests. Default 256.
	GenCacheCapacity int
	// ValidateCacheCapacity bounds the reliability-report cache that backs
	// Validate requests (entries). Default 1024.
	ValidateCacheCapacity int
	// ReplanCacheCapacity bounds the repaired-plan cache keyed by
	// (base digest, delta digest) that backs Replan requests. Default 1024.
	ReplanCacheCapacity int
	// AggregateCacheCapacity bounds the convergecast-plan cache that backs
	// Aggregate requests (entries). Default 1024.
	AggregateCacheCapacity int
	// ImproveWorkers is the background anytime-improver pool size. 0 (the
	// default) disables background improvement entirely: warm hits with an
	// improve budget are served as-is, exactly the pre-improver behavior.
	// Cold-path synchronous improvement only needs a request budget, not
	// the pool.
	ImproveWorkers int
	// ImproveQueue bounds the background improvement queue; a full queue
	// drops the upgrade request (counted, never blocks a Plan). Default 64.
	ImproveQueue int
}

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

// Response is one plan answer. Result is shared and immutable.
type Response struct {
	Digest    string
	Scheduler string
	Result    *core.Result
	CacheHit  bool
	Coalesced bool
	Elapsed   time.Duration
	// Err is set instead of Result on per-item failures inside PlanBatch.
	Err error
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
	// HitLatency/MissLatency are the full hit and miss latency
	// distributions coarsened onto the shared Prometheus edge set —
	// the data behind the _bucket/_sum/_count series /metrics emits.
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

type job struct {
	in    core.Instance
	sp    spec
	val   *valJob    // set for Monte-Carlo validation jobs
	rep   *replanJob // set for churn-repair jobs
	agg   *aggJob    // set for convergecast-scheduling jobs
	reply chan<- jobResult
	// improve is the synchronous anytime-improvement budget spent on a
	// cold search's result before it is stored and returned.
	improve time.Duration
	// tr is the requesting caller's trace (nil for untraced requests —
	// the overwhelmingly common case). Handing the pointer across the
	// queue is safe: every span operation takes the trace's own mutex.
	// Under singleflight only the leader's trace rides the job, so
	// coalesced waiters see cache attributes but no worker-side spans.
	tr *obs.Trace
}

// valJob carries one Monte-Carlo validation: the (shared, immutable)
// schedule to replay plus the loss-model parameters. Repair never mutates
// the schedule it is given; it clones before appending.
type valJob struct {
	sched    *core.Schedule
	model    reliability.LossModel
	trials   int
	target   float64
	maxExtra int
}

type jobResult struct {
	res *core.Result
	out *validateOutcome
	rep *replanOutcome
	agg *aggregate.Result
	err error
}

// validateOutcome is the cached product of one validation: the estimate,
// plus the repair result when a target was requested.
type validateOutcome struct {
	report *reliability.Report
	repair *reliability.RepairResult
}

// worker owns one goroutine and the reusable engines it has instantiated;
// the engines map and the Monte-Carlo estimator are touched only from the
// worker's own goroutine, so no lock guards them and their arenas stay
// warm call after call.
type worker struct {
	jobs       chan job
	engines    map[spec]core.Scheduler
	replanners map[spec]*churn.Replanner
	// aggs holds the worker's reusable convergecast schedulers by tree
	// kind; like engines, only the worker's own goroutine touches them so
	// their scratch arenas stay warm.
	aggs map[string]*aggregate.Scheduler
	est  *reliability.Estimator
	// imp is the worker's reusable improver for synchronous cold-path
	// improvement; like the engines, it is touched only by the worker's
	// own goroutine so its arenas stay warm.
	imp *improve.Improver
}

func (w *worker) run(s *Service) {
	defer s.wg.Done()
	for jb := range w.jobs {
		if jb.agg != nil {
			res, err := w.execAggregate(s, jb)
			jb.reply <- jobResult{agg: res, err: err}
			continue
		}
		if jb.rep != nil {
			rep, err := w.execReplan(s, jb)
			jb.reply <- jobResult{rep: rep, err: err}
			continue
		}
		if jb.val != nil {
			out, err := w.execValidate(jb)
			if err == nil {
				// Repair re-estimates once per round on top of the
				// baseline estimate; count every replay actually run.
				batches := int64(1)
				if out.repair != nil {
					batches = int64(out.repair.Rounds) + 1
				}
				s.mcTrials.Add(int64(jb.val.trials) * batches)
			}
			jb.reply <- jobResult{out: out, err: err}
			continue
		}
		res, err := w.exec(s, jb)
		if err == nil {
			s.searches.Add(1)
		}
		jb.reply <- jobResult{res: res, err: err}
	}
}

// execValidate runs one Monte-Carlo validation on the worker's reusable
// estimator. Trials run single-threaded here — the pool provides the
// concurrency across requests, and the report is identical either way.
func (w *worker) execValidate(jb job) (*validateOutcome, error) {
	if w.est == nil {
		w.est = reliability.NewEstimator()
	}
	v := jb.val
	if v.target > 0 {
		rr, err := w.est.Repair(jb.in, v.sched, v.model, reliability.RepairConfig{
			Target:        v.target,
			Trials:        v.trials,
			Workers:       1,
			MaxExtraSlots: v.maxExtra,
		})
		if err != nil {
			return nil, err
		}
		return &validateOutcome{report: rr.After, repair: rr}, nil
	}
	rep, err := w.est.Estimate(jb.in, v.sched, v.model, reliability.Config{Trials: v.trials, Workers: 1})
	if err != nil {
		return nil, err
	}
	return &validateOutcome{report: rep}, nil
}

func (w *worker) exec(s *Service, jb job) (*core.Result, error) {
	search := jb.tr.Root().Child("search")
	sched := w.scheduler(resolveSpec(jb.sp, jb.in))
	var res *core.Result
	var err error
	if en, ok := sched.(*core.Engine); ok && jb.tr != nil {
		// Traced searches collect the per-depth profile; the plain path
		// runs exactly the pre-observability search so untraced results
		// keep their historic encodings.
		res, err = en.ScheduleProfiled(jb.in)
	} else {
		res, err = sched.Schedule(jb.in)
	}
	if err != nil {
		search.End()
		return res, err
	}
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

	isp := jb.tr.Root().Child("improve")
	isp.SetInt("budget_ns", int64(jb.improve))
	if jb.improve <= 0 || res.Exact {
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
	out, st, ierr := w.imp.Improve(jb.in, res.Schedule, improve.Options{Deadline: jb.improve})
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
		return core.NewEModel(emodel.TwoPass)
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
	cfg     Config
	cache   *plancache.Cache[*core.Result]
	gens    *plancache.Cache[core.Instance]
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
	hitHist           hist
	missHist          hist
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
	if cfg.GenCacheCapacity <= 0 {
		cfg.GenCacheCapacity = 256
	}
	if cfg.ValidateCacheCapacity <= 0 {
		cfg.ValidateCacheCapacity = 1024
	}
	if cfg.ReplanCacheCapacity <= 0 {
		cfg.ReplanCacheCapacity = 1024
	}
	if cfg.AggregateCacheCapacity <= 0 {
		cfg.AggregateCacheCapacity = 1024
	}
	s := &Service{
		cfg:    cfg,
		cache:  plancache.New[*core.Result](cfg.CacheCapacity, cfg.CacheShards),
		gens:   plancache.New[core.Instance](cfg.GenCacheCapacity, 4),
		vcache: plancache.New[*validateOutcome](cfg.ValidateCacheCapacity, 8),
		rcache: plancache.New[*replanOutcome](cfg.ReplanCacheCapacity, 8),
		acache: plancache.New[*aggregate.Result](cfg.AggregateCacheCapacity, 8),
	}
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{
			jobs:       make(chan job, cfg.QueueDepth),
			engines:    make(map[spec]core.Scheduler),
			replanners: make(map[spec]*churn.Replanner),
			aggs:       make(map[string]*aggregate.Scheduler),
		}
		s.workers = append(s.workers, w)
		s.wg.Add(1)
		go w.run(s)
	}
	if cfg.ImproveWorkers > 0 {
		if cfg.ImproveQueue <= 0 {
			cfg.ImproveQueue = 64
		}
		s.cfg.ImproveQueue = cfg.ImproveQueue
		s.improveJobs = make(chan improveJob, cfg.ImproveQueue)
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
	publish := func(sched *core.Schedule, exact bool) {
		s.cache.Update(jb.key, func(res *core.Result) (*core.Result, bool) {
			if sched.End() >= res.Schedule.End() {
				// A concurrent writer (another budget's cold compute, a
				// replan publication) got here with an equal or better
				// plan; never regress, never bump the generation for a
				// non-improvement.
				if exact && sched.End() == res.Schedule.End() && !res.Exact {
					next := *res
					next.Exact = true
					return &next, true
				}
				return res, false
			}
			next := *res
			next.Schedule = sched
			next.PA = sched.End()
			next.Generation = res.Generation + 1
			next.Improved = true
			next.Exact = exact
			s.improvements.Add(1)
			s.improveSlotsSaved.Add(int64(res.Schedule.End() - sched.End()))
			b := next.Generation
			if b >= improveGenBuckets {
				b = improveGenBuckets - 1
			}
			s.genHist[b].Add(1)
			return &next, true
		})
	}
	out, st, err := imp.Improve(jb.in, cur.Schedule, improve.Options{
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

// enqueueImprove asks the background pool to upgrade key, deduping against
// upgrades already queued or running. Never blocks: a full queue counts a
// drop and moves on — improvement is best-effort, serving is not.
func (s *Service) enqueueImprove(key string, in core.Instance, budget time.Duration) {
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

// fail counts err as a request that ended in an error and returns it.
// Every error a workload method returns after enter succeeds goes
// through here; the success path never touches the counter.
func (s *Service) fail(err error) error {
	s.errs.Add(1)
	return err
}

// resolve materializes the request's instance, serving Generator requests
// from the deployment cache so repeat generator traffic never re-samples
// the topology.
func (s *Service) resolve(req WorkloadRequest) (core.Instance, error) {
	switch {
	case req.Instance != nil && req.Generator != nil:
		return core.Instance{}, errors.New("service: request sets both Instance and Generator")
	case req.Instance != nil:
		return *req.Instance, nil
	case req.Generator == nil:
		return core.Instance{}, errors.New("service: request sets neither Instance nor Generator")
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
	in, _, _, err := s.gens.GetOrCompute(key, gen.Instance)
	return in, err
}

// dispatchJob queues one job (search or validation) on the worker shard
// owned by key and waits for its result. Once queued the job runs to
// completion (its budget/trial count bounds the time); ctx only guards
// the queueing itself. The returned error is the queueing error; the
// job's own outcome travels inside the jobResult.
func (s *Service) dispatchJob(ctx context.Context, key string, jb job) (jobResult, error) {
	// plancache.KeyHash, not a local hash: worker selection deliberately
	// co-shards with the cache so repeats of an instance land on the
	// worker whose engine/estimator arenas are already sized for it.
	w := s.workers[int(plancache.KeyHash(key)%uint64(len(s.workers)))]
	reply := make(chan jobResult, 1)
	jb.reply = reply
	select {
	case w.jobs <- jb:
	case <-ctx.Done():
		return jobResult{}, ctx.Err()
	}
	return <-reply, nil
}

// dispatch queues one search and waits for its result. The caller's trace
// rides the job onto the worker: under singleflight only the leader's
// context reaches this point, so exactly one trace collects the
// worker-side spans.
func (s *Service) dispatch(ctx context.Context, key string, in core.Instance, sp spec, improveBudget time.Duration) (*core.Result, error) {
	r, err := s.dispatchJob(ctx, key, job{in: in, sp: sp, improve: improveBudget, tr: obs.FromContext(ctx)})
	if err != nil {
		return nil, err
	}
	return r.res, r.err
}

func planKey(digest graphio.Digest, sp spec) string {
	return planKeyString(digest.String(), sp)
}

// planKeyString is planKey for a digest already in hex form — the replan
// path publishes repaired plans under the mutated instance's digest
// without re-materializing a graphio.Digest.
func planKeyString(digest string, sp spec) string {
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

// planFor obtains the plan behind key: from the cache, or by exactly one
// dispatched search even under concurrent identical requests.
func (s *Service) planFor(ctx context.Context, key string, in core.Instance, sp spec, noCache bool, improveBudget time.Duration) (res *core.Result, hit, coalesced bool, err error) {
	return cachedCompute(ctx, s.cache, key, noCache, func(ctx context.Context) (*core.Result, error) {
		return s.dispatch(ctx, key, in, sp, improveBudget)
	})
}

// Plan answers one request: from the cache when the instance has been
// planned before, otherwise by exactly one search even under concurrent
// identical requests.
func (s *Service) Plan(ctx context.Context, req WorkloadRequest) (Response, error) {
	start := time.Now()
	if err := s.enter(); err != nil {
		return Response{}, err
	}
	defer s.inflight.Done()
	if err := ctx.Err(); err != nil {
		return Response{}, s.fail(err)
	}
	sp, err := parseSpec(req.Scheduler, req.Budget)
	if err != nil {
		return Response{}, s.fail(err)
	}
	// tr is nil on untraced requests — every span call below is then a
	// nil-receiver no-op, which is what keeps the warm path's alloc pin.
	tr := obs.FromContext(ctx)
	rs := tr.Root().Child("resolve")
	in, err := s.resolve(req)
	if err != nil {
		rs.End()
		return Response{}, s.fail(err)
	}
	digest, err := graphio.InstanceDigest(in)
	if err != nil {
		rs.End()
		return Response{}, s.fail(err)
	}
	if rs != nil {
		rs.SetInt("nodes", int64(in.G.N()))
		rs.SetStr("scheduler", sp.kind)
	}
	rs.End()
	key := planKey(digest, sp)

	s.requests.Add(1)
	cs := tr.Root().Child("cache")
	res, hit, coalesced, err := s.planFor(ctx, key, in, sp, req.NoCache, req.ImproveBudget)
	elapsed := time.Since(start)
	if err != nil {
		cs.End()
		return Response{}, s.fail(err)
	}
	cs.SetBool("hit", hit)
	cs.SetBool("coalesced", coalesced)
	if hit {
		cs.SetInt("generation", int64(res.Generation))
	}
	cs.End()
	if hit {
		s.hitHist.observe(elapsed)
		// Serve best-so-far instantly, improve in the background: a warm
		// hit with a budget never pays for its own improvement, it funds
		// the next reader's. Already-exact plans have nothing left.
		if req.ImproveBudget > 0 && !res.Exact {
			qs := tr.Root().Child("improve_enqueue")
			if qs != nil {
				qs.SetInt("budget_ns", int64(req.ImproveBudget))
				qs.SetInt("queue_depth", int64(len(s.improveJobs)))
			}
			s.enqueueImprove(key, in, req.ImproveBudget)
			qs.End()
		}
	} else {
		s.missHist.observe(elapsed)
	}
	return Response{
		Digest:    digest.String(),
		Scheduler: res.Scheduler,
		Result:    res,
		CacheHit:  hit,
		Coalesced: coalesced,
		Elapsed:   elapsed,
	}, nil
}

// PlanBatch answers many requests concurrently, preserving order.
// Per-item failures land in Response.Err; the batch itself always returns.
func (s *Service) PlanBatch(ctx context.Context, reqs []WorkloadRequest) []Response {
	resps := make([]Response, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := s.Plan(ctx, reqs[i])
			if err != nil {
				r.Err = err
			}
			resps[i] = r
		}(i)
	}
	wg.Wait()
	return resps
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
	if len(req.Sizes) == 0 {
		return errors.New("service: sweep needs at least one size")
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
	var merged [histBuckets]int64
	total := s.hitHist.snapshot(&merged)
	total += s.missHist.snapshot(&merged)
	var gens [improveGenBuckets]int64
	for i := range gens {
		gens[i] = s.genHist[i].Load()
	}
	edges := obs.DefaultLatencyEdgesNs()
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
		HitLatency:        s.hitHist.promSnapshot(edges),
		MissLatency:       s.missHist.promSnapshot(edges),
		HitP50:            s.hitHist.percentile(0.50),
		HitP99:            s.hitHist.percentile(0.99),
		MissP50:           s.missHist.percentile(0.50),
		MissP99:           s.missHist.percentile(0.99),
		P50:               percentileOf(&merged, total, 0.50),
		P99:               percentileOf(&merged, total, 0.99),
	}
}
