package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strconv"
	"time"

	"mlbs/internal/aggregate"
	"mlbs/internal/churn"
	"mlbs/internal/core"
	"mlbs/internal/graphio"
	"mlbs/internal/obs"
	"mlbs/internal/plancache"
	"mlbs/internal/reliability"
	"mlbs/internal/service"
)

// The traced run replays a workload's set-up and check prefix in-process
// and times each layer from bench-side spans around the public functions
// the server calls, in the server's order. It adds no tracing to the
// program. The requests run through:
//
//   - a pipeline rebuilt from the layer functions, with spans off and then
//     on, each on fresh state: the tracing overhead;
//   - the real service.Service and, interleaved request by request, the
//     traced pipeline: the ledger, and the service's own share of each
//     request.

// span is one timed call. Spans of one request share Req: the window
// index, or -1-k for the k-th set-up (priming) request.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Allocs uint64 `json:"allocs"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans in memory; the zero value records nothing.
type tracer struct {
	on     bool
	t0     time.Time
	req    int
	spans  []span
	open   []int
	allocs []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{on: true, t0: time.Now(), allocs: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

func (t *tracer) heapAllocs() uint64 {
	metrics.Read(t.allocs)
	return t.allocs[0].Value.Uint64()
}

func (t *tracer) begin(name string) {
	if !t.on {
		return
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	a := t.heapAllocs()
	t.spans = append(t.spans, span{Name: name, Req: t.req, ID: id, Parent: parent, Allocs: a, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
}

func (t *tracer) end() {
	if !t.on {
		return
	}
	sp := &t.spans[t.open[len(t.open)-1]]
	sp.End = int64(time.Since(t.t0))
	sp.Allocs = t.heapAllocs() - sp.Allocs
	t.open = t.open[:len(t.open)-1]
}

// pipeline is the server's request path rebuilt from the layers' public
// functions, with bench-owned caches sized like mlb-serve's defaults and
// one reusable engine per budget, as a server worker keeps.
type pipeline struct {
	tr      *tracer
	gens    *plancache.Cache[core.Instance]
	plans   *plancache.Cache[*core.Result]
	reports *plancache.Cache[*reliability.Report]
	repairs *plancache.Cache[*churn.ReplanResult]
	aggs    *plancache.Cache[*aggregate.Result]
	engines map[int]*core.Engine
	rps     map[int]*churn.Replanner
	agg     aggregate.Scheduler
	est     *reliability.Estimator

	searches, states, memoHits, trials int
}

func newPipeline(tr *tracer) *pipeline {
	return &pipeline{
		tr:      tr,
		gens:    plancache.New[core.Instance](256, 4),
		plans:   plancache.New[*core.Result](4096, 16),
		reports: plancache.New[*reliability.Report](1024, 8),
		repairs: plancache.New[*churn.ReplanResult](1024, 8),
		aggs:    plancache.New[*aggregate.Result](1024, 8),
		engines: make(map[int]*core.Engine),
		rps:     make(map[int]*churn.Replanner),
		est:     reliability.NewEstimator(),
	}
}

func budgetOf(r *request) int {
	if r.budget > 0 {
		return r.budget
	}
	return core.DefaultBudget
}

func (p *pipeline) engine(budget int) *core.Engine {
	en, ok := p.engines[budget]
	if !ok {
		en = core.NewGOPT(budget).NewEngine()
		p.engines[budget] = en
	}
	return en
}

// resolve mirrors the service's resolver: an inline instance is decoded
// (by the HTTP handler, before the service sees it); a generator request
// is served from the deployment cache.
func (p *pipeline) resolve(r *request) (core.Instance, error) {
	if r.kind == planInline {
		p.tr.begin("graphio.decode_instance")
		defer p.tr.end()
		return graphio.DecodeInstance(inlineInstance(r.body))
	}
	key := "gen|" + strconv.Itoa(r.dep.N) + "|" + strconv.FormatUint(r.dep.Seed, 10) + "|" + strconv.Itoa(r.dep.R) + "|0|0|0|0|0"
	p.tr.begin("plancache")
	defer p.tr.end()
	in, _, _, err := p.gens.GetOrCompute(key, func() (core.Instance, error) {
		p.tr.begin("topology.generate")
		defer p.tr.end()
		return r.dep.instance()
	})
	return in, err
}

func (p *pipeline) digest(in core.Instance, agg bool) (string, error) {
	p.tr.begin("graphio.digest")
	defer p.tr.end()
	f := graphio.InstanceDigest
	if agg {
		f = graphio.AggInstanceDigest
	}
	d, err := f(in)
	return d.String(), err
}

// plan serves a plan through the plan cache, searching on a miss.
func (p *pipeline) plan(in core.Instance, key string, budget int) (*core.Result, error) {
	p.tr.begin("plancache")
	defer p.tr.end()
	res, _, _, err := p.plans.GetOrCompute(key, func() (*core.Result, error) {
		p.tr.begin("core.search")
		defer p.tr.end()
		// mlb-serve traces every request, and a traced search runs the
		// profiled engine path; so does the mirror.
		res, err := p.engine(budget).ScheduleProfiled(in)
		if err == nil {
			p.searches++
			p.states += res.Stats.Expanded
			p.memoHits += res.Stats.MemoHits
		}
		return res, err
	})
	return res, err
}

func planKey(digest string, budget int) string {
	return digest + "|gopt|" + strconv.Itoa(budget)
}

// serve runs one request through the pipeline, encoding included.
func (p *pipeline) serve(r *request) error {
	p.tr.begin("request")
	defer p.tr.end()
	in, err := p.resolve(r)
	if err != nil {
		return err
	}
	d, err := p.digest(in, r.kind == aggregateReq)
	if err != nil {
		return err
	}
	budget := budgetOf(r)
	var encode func() ([]byte, error)
	switch r.kind {
	case planGen, planInline:
		res, err := p.plan(in, planKey(d, budget), budget)
		if err != nil {
			return err
		}
		encode = func() ([]byte, error) { return graphio.EncodeResult(res) }
	case validateReq:
		res, err := p.plan(in, planKey(d, budget), budget)
		if err != nil {
			return err
		}
		model := reliability.LossModel{Kind: reliability.KindIID, Rate: validateLoss, Seed: r.lossSeed}
		vkey := planKey(d, budget) + "|v|" + strconv.FormatUint(r.lossSeed, 10)
		p.tr.begin("plancache")
		rep, _, _, err := p.reports.GetOrCompute(vkey, func() (*reliability.Report, error) {
			p.tr.begin("reliability.estimate")
			defer p.tr.end()
			p.trials += validateTrials
			return p.est.Estimate(in, res.Schedule, model, reliability.Config{Trials: validateTrials, Workers: 1})
		})
		p.tr.end()
		if err != nil {
			return err
		}
		encode = func() ([]byte, error) { return graphio.EncodeReliabilityReport(rep) }
	case replanReq:
		p.tr.begin("churn.delta_digest")
		dd, err := churn.DeltaDigest(r.delta)
		p.tr.end()
		if err != nil {
			return err
		}
		pkey := planKey(d, budget)
		p.tr.begin("plancache")
		rr, _, _, err := p.repairs.GetOrCompute(pkey+"|replan|"+dd.String(), func() (*churn.ReplanResult, error) {
			base, err := p.plan(in, pkey, budget)
			if err != nil {
				return nil, err
			}
			rp, ok := p.rps[budget]
			if !ok {
				rp = churn.NewReplanner(churn.ReplanConfig{Scheduler: p.engine(budget)})
				p.rps[budget] = rp
			}
			p.tr.begin("churn.replan")
			rr, err := rp.Replan(in, base.Schedule, r.delta)
			p.tr.end()
			if err != nil {
				return nil, err
			}
			md, err := p.digest(rr.Instance, false)
			if err != nil {
				return nil, err
			}
			if rr.Strategy == churn.StrategyCold {
				p.plans.Put(planKey(md, budget), rr.Result)
			}
			return rr, nil
		})
		p.tr.end()
		if err != nil {
			return err
		}
		encode = func() ([]byte, error) { return graphio.EncodeResult(rr.Result) }
	case aggregateReq:
		p.tr.begin("plancache")
		res, _, _, err := p.aggs.GetOrCompute(d+"|agg-spt", func() (*aggregate.Result, error) {
			p.tr.begin("aggregate.schedule")
			defer p.tr.end()
			return p.agg.Schedule(in)
		})
		p.tr.end()
		if err != nil {
			return err
		}
		encode = func() ([]byte, error) { return graphio.EncodeAggResult(res) }
	}
	p.tr.begin("graphio.encode")
	_, err = encode()
	p.tr.end()
	return err
}

// serviceCall runs one request through a real in-process service.Service,
// traced like mlb-serve traces every POST, and returns its duration. An
// inline instance is decoded beforehand, as the HTTP handler does.
func serviceCall(svc *service.Service, r *request) (time.Duration, error) {
	req := service.WorkloadRequest{Budget: r.budget}
	if r.kind == planInline {
		in, err := graphio.DecodeInstance(inlineInstance(r.body))
		if err != nil {
			return 0, err
		}
		req.Instance = &in
	} else {
		req.Generator = &service.Generator{N: r.dep.N, Seed: r.dep.Seed, DutyRate: r.dep.R}
	}
	tr := obs.NewTrace(r.path())
	ctx := obs.NewContext(context.Background(), tr)
	t0 := time.Now()
	var err error
	switch r.kind {
	case planGen, planInline:
		_, err = svc.Plan(ctx, req)
	case validateReq:
		_, err = svc.Validate(ctx, service.ValidateRequest{WorkloadRequest: req,
			Loss: reliability.LossModel{Rate: validateLoss, Seed: r.lossSeed}, Trials: validateTrials})
	case replanReq:
		_, err = svc.Replan(ctx, service.ReplanRequest{WorkloadRequest: req, Delta: r.delta})
	case aggregateReq:
		_, err = svc.Aggregate(ctx, service.AggregateRequest{WorkloadRequest: req})
	}
	d := time.Since(t0)
	tr.Finish("", "")
	return d, err
}

// replay runs the three passes over reqs (set-up requests first, then the
// window prefix; primed counts the set-up ones) and returns the ledger
// pass's spans and the per-layer metrics derived from them.
func replay(reqs []request, primed int) ([]span, map[string]metric, error) {
	reqIndex := func(i int) int {
		if i < primed {
			return -1 - i
		}
		return i - primed
	}

	// Overhead: the ledger pipeline over every request with spans off,
	// then with spans on, each on fresh state.
	var wall [2]time.Duration
	for k, tr := range []*tracer{{}, newTracer()} {
		runtime.GC()
		p := newPipeline(tr)
		t0 := time.Now()
		for i := range reqs {
			if err := p.serve(&reqs[i]); err != nil {
				return nil, nil, fmt.Errorf("ledger replay of request %d: %w", reqIndex(i), err)
			}
		}
		wall[k] = time.Since(t0)
	}

	// The ledger itself: each request through the real service, then
	// through the traced pipeline, interleaved so that both calls of one
	// request see the same machine.
	svc := service.New(service.Config{Workers: runtime.GOMAXPROCS(0), QueueDepth: 16, CacheCapacity: 4096, ImproveWorkers: 2})
	defer svc.Close()
	runtime.GC()
	tr := newTracer()
	p := newPipeline(tr)
	svcTime := make([]time.Duration, len(reqs))
	for i := range reqs {
		d, err := serviceCall(svc, &reqs[i])
		if err != nil {
			return nil, nil, fmt.Errorf("service replay of request %d: %w", reqIndex(i), err)
		}
		svcTime[i] = d
		tr.req = reqIndex(i)
		if err := p.serve(&reqs[i]); err != nil {
			return nil, nil, fmt.Errorf("ledger replay of request %d: %w", reqIndex(i), err)
		}
	}
	layers := summarize(tr.spans, svcTime, p)
	layers["trace.overhead_pct"] = metric{Unit: "%", Value: 100 * (wall[1].Seconds() - wall[0].Seconds()) / wall[0].Seconds(), OK: true}
	return tr.spans, layers, nil
}

// summarize derives the per-layer metrics from the ledger pass's spans and
// the service pass's per-request times.
func summarize(spans []span, svcTime []time.Duration, p *pipeline) map[string]metric {
	childDur := make([]time.Duration, len(spans))
	for i := range spans {
		if par := spans[i].Parent; par >= 0 {
			childDur[par] += spans[i].dur()
		}
	}
	var digest, encode, decode, generate, cache, search, agg, replan, svcSelf sample
	var estimate time.Duration
	var allocs uint64
	var covered, svcTotal time.Duration
	req := -1
	for i := range spans {
		sp := &spans[i]
		self := sp.dur() - childDur[i]
		switch sp.Name {
		case "request":
			req++
			// The service's share of the request: everything the ledger
			// pass did inside the service's boundary, which excludes the
			// HTTP handler's decode and encode.
			cov := time.Duration(0)
			for j := i + 1; j < len(spans) && spans[j].Req == sp.Req; j++ {
				if spans[j].Parent == i && spans[j].Name != "graphio.encode" && spans[j].Name != "graphio.decode_instance" {
					cov += spans[j].dur()
				}
			}
			covered += cov
			svcTotal += svcTime[req]
			svcSelf.addDur(svcTime[req]-cov, time.Microsecond)
		case "graphio.digest":
			digest.addDur(self, time.Microsecond)
		case "graphio.encode":
			encode.addDur(self, time.Microsecond)
		case "graphio.decode_instance":
			decode.addDur(self, time.Microsecond)
		case "topology.generate":
			generate.addDur(self, time.Microsecond)
		case "plancache":
			cache.addDur(self, time.Microsecond)
		case "core.search":
			search.addDur(self, time.Millisecond)
			allocs += sp.Allocs
		case "aggregate.schedule":
			agg.addDur(self, time.Microsecond)
		case "churn.replan":
			replan.addDur(self, time.Microsecond)
		case "reliability.estimate":
			estimate += self
		}
	}
	out := make(map[string]metric)
	pct := func(name, unit string, s *sample, p int) {
		v, ok := s.pct(p)
		out[name] = metric{Unit: unit, Value: v, OK: ok, N: s.n()}
	}
	val := func(name, unit string, v float64) {
		out[name] = metric{Unit: unit, Value: v, OK: true}
	}
	pct("service.self_us_p50", "us", &svcSelf, 50)
	pct("graphio.digest_us_p50", "us", &digest, 50)
	pct("graphio.encode_us_p50", "us", &encode, 50)
	pct("graphio.decode_instance_us_p50", "us", &decode, 50)
	pct("topology.generate_us_p50", "us", &generate, 50)
	pct("plancache.get_us_p50", "us", &cache, 50)
	pct("core.search_ms_p50", "ms", &search, 50)
	pct("core.search_ms_p90", "ms", &search, 90)
	pct("aggregate.schedule_us_p50", "us", &agg, 50)
	pct("churn.replan_us_p50", "us", &replan, 50)
	val("core.allocs_per_search", "count", ratio(float64(allocs), float64(p.searches)))
	val("core.states_per_search", "count", ratio(float64(p.states), float64(p.searches)))
	val("core.memo_hit_ratio", "ratio", ratio(float64(p.memoHits), float64(p.memoHits+p.states)))
	val("reliability.ns_per_trial", "ns", ratio(float64(estimate.Nanoseconds()), float64(p.trials)))
	val("trace.accounted_pct", "%", 100*ratio(covered.Seconds(), svcTotal.Seconds()))
	return out
}
