// Command mlb-serve exposes the plan service over HTTP/JSON: a
// content-addressed schedule cache with singleflight deduplication in
// front of a sharded pool of reusable search engines, plus the Monte-Carlo
// reliability engine behind /v1/validate.
//
// Usage:
//
//	mlb-serve [-addr :8080] [-workers 0] [-cache 4096] [-queue 16]
//	          [-improve-workers 2] [-trace-recent 64] [-trace-slowest 16]
//	          [-read-header-timeout 5s] [-read-timeout 60s] [-idle-timeout 2m]
//
// Endpoints:
//
//	POST /v1/plan      one plan request (generator params or inline instance)
//	POST /v1/aggregate convergecast (aggregation) schedule toward the sink
//	POST /v1/sweep     streaming parameter sweep (NDJSON, one item per line)
//	POST /v1/validate  Monte-Carlo reliability report (+ optional repair)
//	POST /v1/replan    incremental re-plan after a topology delta
//	GET  /healthz      liveness
//	GET  /metrics      Prometheus text format
//	GET  /debug/traces           flight recorder: last-N + slowest-N traces
//	GET  /debug/traces/{digest}  one retained trace as a span tree
//	/debug/pprof/      runtime profiles
//
// Every POST endpoint above runs under an always-on request trace: the
// span tree — resolve, cache, search, improve, repair phases with
// search-internal counters — lands in a bounded in-memory flight recorder
// served by /debug/traces (DESIGN.md §15). A sweep's trace keeps its root
// span only, so its size does not grow with the number of cells.
//
// A generator-form request and its response:
//
//	curl -s localhost:8080/v1/plan -d '{"n":150,"seed":1,"r":10,"scheduler":"gopt"}'
//	{"digest":"…","cache_hit":false,"result":{"pa":64,…},…}
//
// Every endpoint accepts an optional "channels" parameter selecting the
// K-orthogonal-channel system (K > 1); plans then assign each advance a
// (slot, channel) pair and cache entries are keyed per K:
//
//	curl -s localhost:8080/v1/plan -d '{"n":300,"seed":1,"r":50,"channels":4}'
//
// Reliability validation of the same plan at 5% frame loss:
//
//	curl -s localhost:8080/v1/validate \
//	  -d '{"n":150,"seed":1,"loss_rate":0.05,"trials":1000,"target":0.99}'
//
// Incremental re-planning after two nodes fail:
//
//	curl -s localhost:8080/v1/replan \
//	  -d '{"n":150,"seed":1,"delta":{"version":1,"events":[
//	        {"kind":"fail","node":17},{"kind":"fail","node":4}]}}'
//
// A convergecast (aggregation) schedule for the same deployment — every
// node's reading routed to the sink with payloads merged at parents:
//
//	curl -s localhost:8080/v1/aggregate -d '{"n":150,"seed":1,"r":10,"channels":4}'
//	{"digest":"…","scheduler":"agg-spt","latency_slots":93,…}
//
// Ship an exact instance instead with {"instance": <EncodeInstance JSON>}.
//
// Failures on every /v1/* endpoint share one wire envelope with a stable
// machine-readable code:
//
//	{"error":{"code":"bad_request","message":"…"}}
//
// Codes: bad_request (malformed body or parameters), unprocessable plus
// the typed churn codes source_failed / disconnected / last_node (a delta
// the broadcast cannot survive), not_found, unavailable (shutting down),
// internal.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	runtimemetrics "runtime/metrics"
	"syscall"
	"time"

	"mlbs"
)

// serveConfig is the parsed flag set — separated from main so the
// plumbing from flags to the http.Server is testable.
type serveConfig struct {
	addr              string
	workers           int
	cache             int
	queue             int
	improveWorkers    int
	traceRecent       int
	traceSlowest      int
	readHeaderTimeout time.Duration
	readTimeout       time.Duration
	idleTimeout       time.Duration
}

// parseServeFlags parses args (without the program name). Defaults keep
// one slow or stalled client from pinning a connection forever; write
// timeouts stay off because /v1/sweep streams for as long as the sweep
// runs.
func parseServeFlags(args []string) (serveConfig, error) {
	var cfg serveConfig
	fs := flag.NewFlagSet("mlb-serve", flag.ContinueOnError)
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.IntVar(&cfg.workers, "workers", 0, "scheduling workers (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.cache, "cache", 4096, "plan cache capacity (entries)")
	fs.IntVar(&cfg.queue, "queue", 16, "per-worker job queue depth")
	fs.IntVar(&cfg.improveWorkers, "improve-workers", 2,
		"background anytime-improver goroutines (0 disables background plan upgrades)")
	fs.IntVar(&cfg.traceRecent, "trace-recent", 64,
		"flight-recorder ring size: most recent request traces retained for /debug/traces")
	fs.IntVar(&cfg.traceSlowest, "trace-slowest", 16,
		"flight-recorder slow board size: slowest request traces retained for /debug/traces")
	fs.DurationVar(&cfg.readHeaderTimeout, "read-header-timeout", 5*time.Second,
		"max time to read a request's headers (0 disables)")
	fs.DurationVar(&cfg.readTimeout, "read-timeout", 60*time.Second,
		"max time to read a full request including its body (0 disables)")
	fs.DurationVar(&cfg.idleTimeout, "idle-timeout", 2*time.Minute,
		"max keep-alive idle time between requests (0 disables)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if cfg.workers <= 0 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	return cfg, nil
}

// buildServer wires the parsed timeouts into the http.Server — without
// them a single client that opens a connection and never finishes its
// request holds a goroutine and a socket until the process dies.
func buildServer(cfg serveConfig, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              cfg.addr,
		Handler:           h,
		ReadHeaderTimeout: cfg.readHeaderTimeout,
		ReadTimeout:       cfg.readTimeout,
		IdleTimeout:       cfg.idleTimeout,
	}
}

func main() {
	cfg, err := parseServeFlags(os.Args[1:])
	if err == flag.ErrHelp {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2)
	}
	svc := mlbs.NewService(mlbs.ServiceConfig{
		Workers:        cfg.workers,
		QueueDepth:     cfg.queue,
		CacheCapacity:  cfg.cache,
		ImproveWorkers: cfg.improveWorkers,
	})
	defer svc.Close()

	srv := buildServer(cfg, newMux(svc, newServeObs(cfg.traceRecent, cfg.traceSlowest)))
	go func() {
		log.Printf("mlb-serve: listening on %s (%d workers, cache %d)", cfg.addr, cfg.workers, cfg.cache)
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatalf("mlb-serve: %v", err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Print("mlb-serve: shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
}

// serveObs bundles the server-side observability state: the always-on
// flight recorder behind /debug/traces and one latency histogram per
// traced endpoint (the mlbs_http_request_duration_seconds family on
// /metrics).
type serveObs struct {
	rec *mlbs.TraceRecorder
	lat map[string]*mlbs.LatencyHistogram
}

// handler serves one /v1 request. It writes the response and returns the
// request's digest (empty if it never got that far) and terminal error
// for the trace.
type handler func(svc *mlbs.PlanService, w http.ResponseWriter, r *http.Request) (string, error)

// route is one POST /v1 endpoint.
type route struct {
	path   string
	handle handler
}

// routes is the /v1 surface. Every row runs under a request trace, and
// /metrics emits the endpoints' latency series in this order.
var routes = []route{
	{"/v1/plan", workload(servePlan)},
	{"/v1/aggregate", workload(serveAggregate)},
	{"/v1/validate", workload(serveValidate)},
	{"/v1/replan", workload(serveReplan)},
	{"/v1/sweep", handleSweep},
}

func newServeObs(recentN, slowestN int) *serveObs {
	o := &serveObs{
		rec: mlbs.NewTraceRecorder(recentN, slowestN),
		lat: make(map[string]*mlbs.LatencyHistogram, len(routes)),
	}
	for _, rt := range routes {
		o.lat[rt.path] = new(mlbs.LatencyHistogram)
	}
	return o
}

// traced serves one route with per-request span tracing: a fresh trace
// rides the request context into the service (which annotates its
// resolve, cache, search, improve and repair phases), and the finished
// snapshot — with the digest and terminal error the route's handler
// returns — lands in the flight recorder plus the route's latency
// histogram.
func (o *serveObs) traced(svc *mlbs.PlanService, rt route) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tr := mlbs.NewTrace(rt.path)
		digest, err := rt.handle(svc, w, r.WithContext(mlbs.TraceContext(r.Context(), tr)))
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		snap := tr.Finish(digest, msg)
		o.rec.Record(snap)
		if snap != nil {
			o.lat[rt.path].Observe(time.Duration(snap.DurationNs))
		}
	}
}

// tracesIndexResponse is the GET /debug/traces schema.
type tracesIndexResponse struct {
	Seen    int64                 `json:"seen"`
	Recent  []*mlbs.TraceSnapshot `json:"recent"`
	Slowest []*mlbs.TraceSnapshot `json:"slowest"`
}

func handleTracesIndex(o *serveObs, w http.ResponseWriter) {
	recent, slowest := o.rec.Snapshot()
	if recent == nil {
		recent = []*mlbs.TraceSnapshot{}
	}
	if slowest == nil {
		slowest = []*mlbs.TraceSnapshot{}
	}
	writeJSON(w, http.StatusOK, tracesIndexResponse{Seen: o.rec.Seen(), Recent: recent, Slowest: slowest})
}

func handleTraceByDigest(o *serveObs, w http.ResponseWriter, digest string) {
	if s := o.rec.Find(digest); s != nil {
		writeJSON(w, http.StatusOK, s)
		return
	}
	httpError(w, http.StatusNotFound, fmt.Errorf("no retained trace for digest %s", digest))
}

func newMux(svc *mlbs.PlanService, obsv *serveObs) *http.ServeMux {
	mux := http.NewServeMux()
	for _, rt := range routes {
		mux.HandleFunc("POST "+rt.path, obsv.traced(svc, rt))
	}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) { handleMetrics(svc, obsv, w) })
	mux.HandleFunc("GET /debug/traces", func(w http.ResponseWriter, r *http.Request) { handleTracesIndex(obsv, w) })
	mux.HandleFunc("GET /debug/traces/{digest}", func(w http.ResponseWriter, r *http.Request) {
		handleTraceByDigest(obsv, w, r.PathValue("digest"))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// baseSelection is the field set every workload request shares: the
// instance — the paper generator's parameters or an inline graphio
// instance encoding — plus the scheduler and the caching discipline.
type baseSelection struct {
	N        int    `json:"n,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`
	R        int    `json:"r,omitempty"`
	WakeSeed uint64 `json:"wake_seed,omitempty"`
	Channels int    `json:"channels,omitempty"`
	// SINR physical-model parameters for the generator form; all zero
	// keeps the protocol model. Inline instances carry their own.
	SINRAlpha float64         `json:"sinr_alpha,omitempty"`
	SINRBeta  float64         `json:"sinr_beta,omitempty"`
	SINRNoise float64         `json:"sinr_noise,omitempty"`
	Instance  json.RawMessage `json:"instance,omitempty"`
	Scheduler string          `json:"scheduler,omitempty"`
	Budget    int             `json:"budget,omitempty"`
	NoCache   bool            `json:"no_cache,omitempty"`
}

// request builds the service's request envelope: a decoded instance when
// one was shipped inline, the generator parameters otherwise.
func (b *baseSelection) request() (mlbs.WorkloadRequest, error) {
	req := mlbs.WorkloadRequest{Scheduler: b.Scheduler, Budget: b.Budget, NoCache: b.NoCache}
	if len(b.Instance) == 0 {
		req.Generator = &mlbs.PlanGenerator{N: b.N, Seed: b.Seed, DutyRate: b.R, WakeSeed: b.WakeSeed, Channels: b.Channels,
			SINRAlpha: b.SINRAlpha, SINRBeta: b.SINRBeta, SINRNoise: b.SINRNoise}
		return req, nil
	}
	in, err := mlbs.DecodeInstance(b.Instance)
	if err != nil {
		return req, err
	}
	req.Instance = &in
	return req, nil
}

// workloadBody constrains the adapter's decoded request: a pointer to a
// request type that builds its service envelope (through the embedded
// baseSelection).
type workloadBody[Q any] interface {
	*Q
	request() (mlbs.WorkloadRequest, error)
}

// internalError marks a failure after the service answered — projecting
// or replaying its result — as the server's fault rather than the
// request's.
type internalError struct{ error }

// workload is the one HTTP adapter every /v1 workload shares: decode the
// body into a Q, build its WorkloadRequest, then let run call the service
// and render the reply body. Decode and build failures are 400
// bad_request, service failures 400 or their typed code, and failures run
// marks as internalError 500.
func workload[Q any, PQ workloadBody[Q]](
	run func(ctx context.Context, svc *mlbs.PlanService, q PQ, req mlbs.WorkloadRequest) (digest string, body any, err error),
) handler {
	return func(svc *mlbs.PlanService, w http.ResponseWriter, r *http.Request) (string, error) {
		q := PQ(new(Q))
		var (
			req    mlbs.WorkloadRequest
			digest string
			body   any
		)
		err := decodeBody(r, q)
		if err == nil {
			req, err = q.request()
		}
		if err == nil {
			digest, body, err = run(r.Context(), svc, q, req)
		}
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return digest, err
		}
		writeJSON(w, http.StatusOK, body)
		return digest, nil
	}
}

// decodeBody reads a size-limited request body into v.
func decodeBody(r *http.Request, v any) error {
	data, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// planHTTPRequest is the wire form of a plan request.
type planHTTPRequest struct {
	baseSelection
	Replay bool `json:"replay,omitempty"`
	// ImproveBudgetMs buys anytime improvement: spent synchronously on a
	// cold miss, or as a background upgrade re-published under the same
	// digest on a warm hit. 0 keeps the pre-improver path bit-identical.
	ImproveBudgetMs int64 `json:"improve_budget_ms,omitempty"`
}

type planHTTPResponse struct {
	Digest    string `json:"digest"`
	Scheduler string `json:"scheduler"`
	CacheHit  bool   `json:"cache_hit"`
	Coalesced bool   `json:"coalesced"`
	ElapsedNs int64  `json:"elapsed_ns"`
	// Exact mirrors the result's exactness at the top level so clients can
	// tell a proven-optimal plan from a budget-truncated one without
	// parsing the nested result; Generation/Improved carry the anytime
	// improver's provenance (omitted for plans it never touched).
	Exact      bool            `json:"exact"`
	Generation int             `json:"generation,omitempty"`
	Improved   bool            `json:"improved,omitempty"`
	Result     mlbs.ResultWire `json:"result"`
	Report     *mlbs.Report    `json:"report,omitempty"`
}

func servePlan(ctx context.Context, svc *mlbs.PlanService, q *planHTTPRequest, req mlbs.WorkloadRequest) (string, any, error) {
	req.ImproveBudget = time.Duration(q.ImproveBudgetMs) * time.Millisecond
	resp, err := svc.Plan(ctx, req)
	if err != nil {
		return "", nil, err
	}
	resWire, err := mlbs.NewResultWire(resp.Result)
	if err != nil {
		return resp.Digest, nil, internalError{err}
	}
	out := planHTTPResponse{
		Digest:     resp.Digest,
		Scheduler:  resp.Scheduler,
		CacheHit:   resp.CacheHit,
		Coalesced:  resp.Coalesced,
		ElapsedNs:  resp.Elapsed.Nanoseconds(),
		Exact:      resp.Result.Exact,
		Generation: resp.Result.Generation,
		Improved:   resp.Result.Improved,
		Result:     resWire,
	}
	if q.Replay {
		in := req.Instance
		if in == nil {
			// Generator form: rebuild the instance the service planned
			// (deterministic from the same parameters).
			gen, err := req.Generator.Instance()
			if err != nil {
				return resp.Digest, nil, internalError{err}
			}
			in = &gen
		}
		if out.Report, err = mlbs.Replay(*in, resp.Result.Schedule); err != nil {
			return resp.Digest, nil, internalError{err}
		}
	}
	return resp.Digest, out, nil
}

type aggregateHTTPResponse struct {
	Digest    string `json:"digest"`
	Scheduler string `json:"scheduler"`
	CacheHit  bool   `json:"cache_hit"`
	Coalesced bool   `json:"coalesced"`
	ElapsedNs int64  `json:"elapsed_ns"`
	// LatencySlots mirrors the nested result's makespan so clients polling
	// for the headline number need not parse the schedule.
	LatencySlots int                `json:"latency_slots"`
	Result       mlbs.AggResultWire `json:"result"`
}

// serveAggregate answers a convergecast request: the base selection alone,
// with the aggregation tree policy in scheduler ("agg-spt" default,
// "agg-bounded").
func serveAggregate(ctx context.Context, svc *mlbs.PlanService, _ *baseSelection, req mlbs.WorkloadRequest) (string, any, error) {
	resp, err := svc.Aggregate(ctx, mlbs.AggregateRequest{WorkloadRequest: req})
	if err != nil {
		return "", nil, err
	}
	resWire, err := mlbs.NewAggResultWire(resp.Result)
	if err != nil {
		return resp.Digest, nil, internalError{err}
	}
	return resp.Digest, aggregateHTTPResponse{
		Digest:       resp.Digest,
		Scheduler:    resp.Scheduler,
		CacheHit:     resp.CacheHit,
		Coalesced:    resp.Coalesced,
		ElapsedNs:    resp.Elapsed.Nanoseconds(),
		LatencySlots: resp.Result.LatencySlots,
		Result:       resWire,
	}, nil
}

// validateHTTPRequest is the wire form of a reliability validation: the
// plan selection plus the loss model and Monte-Carlo parameters.
type validateHTTPRequest struct {
	baseSelection
	LossKind      string  `json:"loss_kind,omitempty"`
	LossRate      float64 `json:"loss_rate"`
	LossSeed      uint64  `json:"loss_seed,omitempty"`
	Trials        int     `json:"trials,omitempty"`
	Target        float64 `json:"target,omitempty"`
	MaxExtraSlots int     `json:"max_extra_slots,omitempty"`
}

type validateHTTPResponse struct {
	Digest       string                     `json:"digest"`
	Scheduler    string                     `json:"scheduler"`
	CacheHit     bool                       `json:"cache_hit"`
	Coalesced    bool                       `json:"coalesced"`
	PlanCacheHit bool                       `json:"plan_cache_hit"`
	ElapsedNs    int64                      `json:"elapsed_ns"`
	Report       mlbs.ReliabilityReportWire `json:"report"`
	Repair       *repairHTTP                `json:"repair,omitempty"`
}

type repairHTTP struct {
	Target          float64                    `json:"target"`
	TargetMet       bool                       `json:"target_met"`
	Rounds          int                        `json:"rounds"`
	AddedAdvances   int                        `json:"added_advances"`
	AddedSlots      int                        `json:"added_slots"`
	BaseLatency     int                        `json:"base_latency"`
	RepairedLatency int                        `json:"repaired_latency"`
	Before          mlbs.ReliabilityReportWire `json:"before"`
	Schedule        mlbs.ScheduleWire          `json:"schedule"`
}

func serveValidate(ctx context.Context, svc *mlbs.PlanService, q *validateHTTPRequest, req mlbs.WorkloadRequest) (string, any, error) {
	resp, err := svc.Validate(ctx, mlbs.ValidateRequest{
		WorkloadRequest: req,
		Loss:            mlbs.ReliabilityLossModel{Kind: q.LossKind, Rate: q.LossRate, Seed: q.LossSeed},
		Trials:          q.Trials,
		Target:          q.Target,
		MaxExtraSlots:   q.MaxExtraSlots,
	})
	if err != nil {
		return "", nil, err
	}
	out := validateHTTPResponse{
		Digest:       resp.Digest,
		Scheduler:    resp.Scheduler,
		CacheHit:     resp.CacheHit,
		Coalesced:    resp.Coalesced,
		PlanCacheHit: resp.PlanCacheHit,
		ElapsedNs:    resp.Elapsed.Nanoseconds(),
	}
	if out.Report, err = mlbs.NewReliabilityReportWire(resp.Report); err != nil {
		return resp.Digest, nil, internalError{err}
	}
	if rr := resp.Repair; rr != nil {
		out.Repair = &repairHTTP{
			Target:          rr.Target,
			TargetMet:       rr.TargetMet,
			Rounds:          rr.Rounds,
			AddedAdvances:   rr.AddedAdvances,
			AddedSlots:      rr.AddedSlots,
			BaseLatency:     rr.BaseLatency,
			RepairedLatency: rr.RepairedLatency,
		}
		if out.Repair.Before, err = mlbs.NewReliabilityReportWire(rr.Before); err != nil {
			return resp.Digest, nil, internalError{err}
		}
		if out.Repair.Schedule, err = mlbs.NewScheduleWire(rr.Schedule); err != nil {
			return resp.Digest, nil, internalError{err}
		}
	}
	return resp.Digest, out, nil
}

// replanHTTPRequest is the wire form of a churn repair: the base-instance
// selection plus the delta in its EncodeChurnDelta schema.
type replanHTTPRequest struct {
	baseSelection
	Delta json.RawMessage `json:"delta"`
	delta mlbs.ChurnDelta
}

// request decodes the delta before the base selection, so a request
// without one fails on that first.
func (q *replanHTTPRequest) request() (mlbs.WorkloadRequest, error) {
	if len(q.Delta) == 0 {
		return mlbs.WorkloadRequest{}, errors.New("replan request needs a delta")
	}
	var err error
	if q.delta, err = mlbs.DecodeChurnDelta(q.Delta); err != nil {
		return mlbs.WorkloadRequest{}, err
	}
	return q.baseSelection.request()
}

type replanHTTPResponse struct {
	BaseDigest   string          `json:"base_digest"`
	Digest       string          `json:"digest"`
	Scheduler    string          `json:"scheduler"`
	Strategy     string          `json:"strategy"`
	KeptAdvances int             `json:"kept_advances"`
	BaseAdvances int             `json:"base_advances"`
	BasePlanHit  bool            `json:"base_plan_hit"`
	CacheHit     bool            `json:"cache_hit"`
	Coalesced    bool            `json:"coalesced"`
	ElapsedNs    int64           `json:"elapsed_ns"`
	Result       mlbs.ResultWire `json:"result"`
}

func serveReplan(ctx context.Context, svc *mlbs.PlanService, q *replanHTTPRequest, req mlbs.WorkloadRequest) (string, any, error) {
	resp, err := svc.Replan(ctx, mlbs.ReplanRequest{WorkloadRequest: req, Delta: q.delta})
	if err != nil {
		return "", nil, err
	}
	resWire, err := mlbs.NewResultWire(resp.Result)
	if err != nil {
		return resp.Digest, nil, internalError{err}
	}
	return resp.Digest, replanHTTPResponse{
		BaseDigest:   resp.BaseDigest,
		Digest:       resp.Digest,
		Scheduler:    resp.Scheduler,
		Strategy:     string(resp.Strategy),
		KeptAdvances: resp.KeptAdvances,
		BaseAdvances: resp.BaseAdvances,
		BasePlanHit:  resp.BasePlanHit,
		CacheHit:     resp.CacheHit,
		Coalesced:    resp.Coalesced,
		ElapsedNs:    resp.Elapsed.Nanoseconds(),
		Result:       resWire,
	}, nil
}

// handleSweep streams one NDJSON item per sweep cell. A request-level
// failure — a malformed body, no sizes, an unknown scheduler — fails
// before the first item and gets the error envelope; a failing cell is an
// item of its own, and a failure once items flow ends the stream with an
// error line.
func handleSweep(svc *mlbs.PlanService, w http.ResponseWriter, r *http.Request) (string, error) {
	var req mlbs.SweepRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		err = fmt.Errorf("bad request body: %w", err)
		httpError(w, http.StatusBadRequest, err)
		return "", err
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	streaming := false
	// The cells run untraced, so the sweep's trace holds its root span
	// only, however many cells the sweep has.
	err := svc.Sweep(mlbs.TraceContext(r.Context(), nil), req, func(it mlbs.SweepItem) error {
		streaming = true
		if err := enc.Encode(it); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	switch {
	case err != nil && !streaming:
		httpError(w, http.StatusBadRequest, err)
	case err != nil:
		_ = enc.Encode(mlbs.SweepItem{Err: err.Error()})
	}
	return "", err
}

func handleMetrics(svc *mlbs.PlanService, obsv *serveObs, w http.ResponseWriter) {
	m := svc.Metrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	mlbs.WritePromCounter(w, "mlbs_plan_requests_total", "Plan requests received.", m.Requests)
	mlbs.WritePromCounter(w, "mlbs_plan_cache_hits_total", "Plan requests answered from the schedule cache.", m.Hits)
	mlbs.WritePromCounter(w, "mlbs_plan_cache_misses_total", "Plan requests that missed the schedule cache.", m.Misses)
	mlbs.WritePromCounter(w, "mlbs_plan_coalesced_total", "Plan requests coalesced onto another caller's in-flight search.", m.Coalesced)
	mlbs.WritePromCounter(w, "mlbs_plan_searches_total", "Schedule searches actually executed by the worker pool.", m.Searches)
	mlbs.WritePromCounter(w, "mlbs_plan_errors_total", "Requests that ended in an error.", m.Errors)
	mlbs.WritePromCounter(w, "mlbs_plan_cache_evictions_total", "Schedule-cache LRU evictions.", m.Evictions)
	mlbs.WritePromGauge(w, "mlbs_plan_cache_entries", "Schedule-cache entries currently resident.", int64(m.CacheEntries))
	mlbs.WritePromGauge(w, "mlbs_plan_cache_capacity", "Schedule-cache entry bound (pair with mlbs_plan_cache_entries for occupancy).", int64(m.CacheCapacity))
	mlbs.WritePromCounter(w, "mlbs_engine_states_total", "Branch-and-bound states expanded across every search the service ran.", m.EngineStates)
	mlbs.WritePromCounter(w, "mlbs_engine_memo_hits_total", "Search memo-table hits across every search the service ran.", m.EngineMemoHits)
	mlbs.WritePromCounter(w, "mlbs_aggregate_requests_total", "Convergecast (aggregation) requests received.", m.Aggregates)
	mlbs.WritePromCounter(w, "mlbs_aggregate_searches_total", "Convergecast scheduler runs actually executed.", m.AggSearches)
	mlbs.WritePromCounter(w, "mlbs_aggregate_cache_hits_total", "Aggregations answered from the convergecast-plan cache.", m.AggregateHits)
	mlbs.WritePromCounter(w, "mlbs_aggregate_cache_misses_total", "Aggregations that missed the convergecast-plan cache.", m.AggregateMisses)
	mlbs.WritePromGauge(w, "mlbs_aggregate_cache_entries", "Convergecast-plan cache entries currently resident.", int64(m.AggregateEntries))
	mlbs.WritePromCounter(w, "mlbs_validate_requests_total", "Reliability validation requests received.", m.Validations)
	mlbs.WritePromCounter(w, "mlbs_validate_trials_total", "Monte-Carlo trials executed.", m.MonteCarloTrials)
	mlbs.WritePromCounter(w, "mlbs_validate_cache_hits_total", "Validations answered from the reliability-report cache.", m.ValidateHits)
	mlbs.WritePromCounter(w, "mlbs_validate_cache_misses_total", "Validations that missed the reliability-report cache.", m.ValidateMisses)
	mlbs.WritePromGauge(w, "mlbs_validate_cache_entries", "Reliability-report cache entries currently resident.", int64(m.ValidateEntries))
	mlbs.WritePromCounter(w, "mlbs_replan_requests_total", "Churn replan requests received.", m.Replans)
	mlbs.WritePromCounter(w, "mlbs_replan_prefix_total", "Repairs classified prefix-reusable.", m.ReplanPrefix)
	mlbs.WritePromCounter(w, "mlbs_replan_incremental_total", "Repairs classified incremental.", m.ReplanIncremental)
	mlbs.WritePromCounter(w, "mlbs_replan_cold_total", "Repairs that fell back to a cold full search.", m.ReplanCold)
	mlbs.WritePromCounter(w, "mlbs_replan_cache_hits_total", "Replans answered from the repair cache.", m.ReplanHits)
	mlbs.WritePromCounter(w, "mlbs_replan_cache_misses_total", "Replans that missed the repair cache.", m.ReplanMisses)
	mlbs.WritePromGauge(w, "mlbs_replan_cache_entries", "Repair-cache entries currently resident.", int64(m.ReplanEntries))
	mlbs.WritePromCounter(w, "mlbs_improve_total", "Anytime-improver upgrades accepted (sync and background).", m.Improvements)
	mlbs.WritePromCounter(w, "mlbs_improve_slots_saved_total", "Latency slots shaved off served plans by the improver.", m.ImproveSlotsSaved)
	mlbs.WritePromCounter(w, "mlbs_improve_queued_total", "Background improvement jobs enqueued.", m.ImproveQueued)
	mlbs.WritePromCounter(w, "mlbs_improve_dropped_total", "Background improvement jobs dropped on a full queue.", m.ImproveDropped)
	mlbs.WritePromGauge(w, "mlbs_improve_queue_depth", "Background improver queue occupancy.", int64(m.ImproveQueueDepth))
	fmt.Fprintf(w, "# HELP mlbs_improve_generation_total Plan publications by improvement generation.\n")
	fmt.Fprintf(w, "# TYPE mlbs_improve_generation_total counter\n")
	for i, c := range m.Generations {
		fmt.Fprintf(w, "mlbs_improve_generation_total{gen=\"%d\"} %d\n", i, c)
	}
	mlbs.WritePromCounter(w, "mlbs_traces_recorded_total", "Request traces finished into the flight recorder.", obsv.rec.Seen())
	fmt.Fprintf(w, "# HELP mlbs_plan_latency_seconds Plan request latency quantiles (all requests).\n")
	fmt.Fprintf(w, "# TYPE mlbs_plan_latency_seconds summary\n")
	fmt.Fprintf(w, "mlbs_plan_latency_seconds{quantile=\"0.5\"} %g\n", m.P50.Seconds())
	fmt.Fprintf(w, "mlbs_plan_latency_seconds{quantile=\"0.99\"} %g\n", m.P99.Seconds())
	mlbs.WritePromHistogram(w, "mlbs_plan_hit_latency_seconds",
		"Latency distribution of plan requests answered from the cache.", "", m.HitLatency)
	mlbs.WritePromHistogram(w, "mlbs_plan_miss_latency_seconds",
		"Latency distribution of plan requests that ran a search.", "", m.MissLatency)
	fmt.Fprintf(w, "# HELP mlbs_http_request_duration_seconds End-to-end request latency by endpoint.\n")
	fmt.Fprintf(w, "# TYPE mlbs_http_request_duration_seconds histogram\n")
	for _, rt := range routes {
		mlbs.WritePromHistogramSeries(w, "mlbs_http_request_duration_seconds",
			fmt.Sprintf("endpoint=%q", rt.path), obsv.lat[rt.path].Snapshot())
	}
	writeRuntimeMetrics(w)
}

// writeRuntimeMetrics exports the process-health slice of runtime/metrics:
// live goroutines, completed GC cycles, and live heap bytes.
func writeRuntimeMetrics(w io.Writer) {
	samples := []runtimemetrics.Sample{
		{Name: "/sched/goroutines:goroutines"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/memory/classes/heap/objects:bytes"},
	}
	runtimemetrics.Read(samples)
	if samples[0].Value.Kind() == runtimemetrics.KindUint64 {
		mlbs.WritePromGauge(w, "mlbs_goroutines", "Live goroutines.", int64(samples[0].Value.Uint64()))
	}
	if samples[1].Value.Kind() == runtimemetrics.KindUint64 {
		mlbs.WritePromCounter(w, "mlbs_gc_cycles_total", "Completed GC cycles.", int64(samples[1].Value.Uint64()))
	}
	if samples[2].Value.Kind() == runtimemetrics.KindUint64 {
		mlbs.WritePromGauge(w, "mlbs_heap_objects_bytes", "Bytes of live heap objects.", int64(samples[2].Value.Uint64()))
	}
}

// errorBody is the one error envelope every /v1/* endpoint speaks: a
// stable machine-readable code for programs, the error text for humans.
type errorBody struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// httpError writes the error envelope. Typed failures override the
// caller's status: a failure after the service answered is the server's
// (500), a churn delta the broadcast cannot survive is a semantic failure
// (422) with its own code, not a malformed request, and a closing service
// is 503 so load balancers retry elsewhere.
func httpError(w http.ResponseWriter, status int, err error) {
	var code string
	switch {
	case errors.As(err, new(internalError)):
		status, code = http.StatusInternalServerError, "internal"
	case errors.Is(err, mlbs.ErrChurnSourceFailed):
		status, code = http.StatusUnprocessableEntity, "source_failed"
	case errors.Is(err, mlbs.ErrChurnDisconnected):
		status, code = http.StatusUnprocessableEntity, "disconnected"
	case errors.Is(err, mlbs.ErrChurnLastNode):
		status, code = http.StatusUnprocessableEntity, "last_node"
	case errors.Is(err, mlbs.ErrServiceClosed):
		status, code = http.StatusServiceUnavailable, "unavailable"
	default:
		switch status {
		case http.StatusBadRequest:
			code = "bad_request"
		case http.StatusNotFound:
			code = "not_found"
		case http.StatusUnprocessableEntity:
			code = "unprocessable"
		case http.StatusServiceUnavailable:
			code = "unavailable"
		default:
			code = "internal"
		}
	}
	writeJSON(w, status, errorBody{Error: errorDetail{Code: code, Message: err.Error()}})
}

// writeJSON encodes v in one pass. The /v1/* envelopes embed their
// results, reports and schedules as graphio wire forms, not as
// pre-encoded bytes the encoder would have to compact and indent again.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}
