// Command mlb-bench measures the schedulers on the paper topology and
// emits one machine-readable JSON report per run, so the repository's
// performance trajectory (ns/op, allocs/op, latency) is tracked from a
// stable tool instead of hand-copied `go test -bench` output.
//
// Usage:
//
//	mlb-bench [-n 300] [-seed 1] [-r 10] [-iters 3] [-svcreqs 32]
//	          [-reltrials 500] [-out BENCH_schedulers.json]
//
// The report is a JSON object with run metadata and one array per
// section: records (one per (scheduler, system) pair), reliability,
// channels (latency vs K), agg (convergecast latency vs K), models
// (latency vs interference model), improve (anytime improver under move
// budgets) and obs (tracing overhead over -svcreqs cold plans). Serving
// throughput is measured end to end over HTTP by the bench/ workloads,
// not here. mlb-benchdiff gates it against the checked-in
// BENCH_baseline.json. Commit the numbers, not the file: BENCH_*.json is
// gitignored by convention and meant for dashboards/CI artifacts.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"mlbs"
)

// record is one (scheduler, system) pair. Expanded and MemoHits are the
// search effort from Result.Stats (0 for the policies): deterministic for
// a fixed (n, seed, r), so a change that claims to leave the search
// untouched must reproduce them exactly.
type record struct {
	Name        string `json:"name"`
	System      string `json:"system"`
	Scheduler   string `json:"scheduler"`
	Iterations  int    `json:"iterations"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	LatencyPA   int    `json:"latency_slots"`
	Exact       bool   `json:"exact"`
	Expanded    int    `json:"expanded"`
	MemoHits    int    `json:"memo_hits"`
}

// reliabilityRecord captures the Monte-Carlo engine's throughput on one
// topology size: batched lossy replays per second and the per-replay
// allocation count (which must stay ~0 — the engine's reuse discipline).
type reliabilityRecord struct {
	Name            string  `json:"name"`
	Nodes           int     `json:"nodes"`
	Trials          int     `json:"trials"`
	LossRate        float64 `json:"loss_rate"`
	ReplaysPerSec   float64 `json:"replays_per_sec"`
	NsPerReplay     int64   `json:"ns_per_replay"`
	AllocsPerReplay float64 `json:"allocs_per_replay"`
	MeanDelivery    float64 `json:"mean_delivery_ratio"`
}

// channelRecord captures one cell of the latency-vs-K curve: the G-OPT
// schedule on the paper topology with K orthogonal channels.
type channelRecord struct {
	Name         string  `json:"name"`
	Nodes        int     `json:"nodes"`
	System       string  `json:"system"`
	Channels     int     `json:"channels"`
	LatencySlots int     `json:"latency_slots"`
	NsPerOp      int64   `json:"ns_per_op"`
	Exact        bool    `json:"exact"`
	LatencyVsK1  float64 `json:"latency_over_k1"`
}

// aggRecord captures one cell of the convergecast latency-vs-K curve: the
// SPT aggregation schedule on the paper topology with K orthogonal
// channels, routing every node's reading to the sink. Latencies are
// deterministic functions of (n, seed, r, K) — CI gates on them exactly.
type aggRecord struct {
	Name         string  `json:"name"`
	Nodes        int     `json:"nodes"`
	System       string  `json:"system"`
	Channels     int     `json:"channels"`
	LatencySlots int     `json:"latency_slots"`
	NsPerOp      int64   `json:"ns_per_op"`
	LatencyVsK1  float64 `json:"latency_over_k1"`
}

// modelRecord captures one cell of the latency-vs-interference-model
// curve: the G-OPT schedule on the paper topology under the protocol
// (graph) model against SINR variants of increasing strictness. Every
// schedule is validated and replayed under its own model before its
// numbers are reported.
type modelRecord struct {
	Name         string  `json:"name"`
	Nodes        int     `json:"nodes"`
	Model        string  `json:"model"`
	Alpha        float64 `json:"alpha,omitempty"`
	Beta         float64 `json:"beta,omitempty"`
	LatencySlots int     `json:"latency_slots"`
	NsPerOp      int64   `json:"ns_per_op"`
	Exact        bool    `json:"exact"`
	// LatencyVsGraph is this model's latency over the protocol model's on
	// the same deployment — the price of physical-interference awareness.
	LatencyVsGraph float64 `json:"latency_over_graph"`
}

// improveRecord captures one anytime-improver case: the approximation's
// schedule tightened under a deterministic move budget. Slot counts are
// exact functions of (n, seed, r, max_moves) — CI gates on them.
type improveRecord struct {
	Name         string `json:"name"`
	Nodes        int    `json:"nodes"`
	System       string `json:"system"`
	MaxMoves     int    `json:"max_moves"`
	InputSlots   int    `json:"input_latency_slots"`
	LatencySlots int    `json:"latency_slots"`
	SlotsSaved   int    `json:"slots_saved"`
	Moves        int    `json:"moves"`
	Searches     int    `json:"searches"`
	Exact        bool   `json:"exact"`
	NsPerOp      int64  `json:"ns_per_op"`
}

// obsRecord captures the tracing tax: cold plans measured with a request
// trace attached versus detached (fresh service each), plus the span count
// of one traced cold plan — deterministic for a fixed request shape, so CI
// gates on it exactly while the wall-clock overhead gets slack.
type obsRecord struct {
	Name        string  `json:"name"`
	Nodes       int     `json:"nodes"`
	Requests    int     `json:"requests"`
	DisabledNs  int64   `json:"disabled_ns"`
	EnabledNs   int64   `json:"enabled_ns"`
	OverheadPct float64 `json:"overhead_pct"`
	Spans       int     `json:"spans"`
}

type report struct {
	Tool        string              `json:"tool"`
	GoVersion   string              `json:"go_version"`
	GOOS        string              `json:"goos"`
	GOARCH      string              `json:"goarch"`
	Timestamp   string              `json:"timestamp"`
	Nodes       int                 `json:"nodes"`
	Seed        uint64              `json:"seed"`
	DutyRate    int                 `json:"duty_rate"`
	Records     []record            `json:"records"`
	Reliability []reliabilityRecord `json:"reliability"`
	Channels    []channelRecord     `json:"channels"`
	Agg         []aggRecord         `json:"agg"`
	Models      []modelRecord       `json:"models"`
	Improve     []improveRecord     `json:"improve"`
	Obs         []obsRecord         `json:"obs"`
}

// bench holds the run parameters every section reads.
type bench struct {
	dep                         *mlbs.Deployment
	n, r, iters, svcReqs, relTr int
	seed                        uint64
}

func main() {
	var b bench
	flag.IntVar(&b.n, "n", 300, "deployment size (paper topology)")
	flag.Uint64Var(&b.seed, "seed", 1, "deployment seed")
	flag.IntVar(&b.r, "r", 10, "duty-cycle rate for the async system")
	flag.IntVar(&b.iters, "iters", 3, "fixed benchmark iterations per case")
	flag.IntVar(&b.svcReqs, "svcreqs", 32, "cold plan requests per tracing-overhead (obs) phase")
	flag.IntVar(&b.relTr, "reltrials", 500, "Monte-Carlo trials per reliability case")
	out := flag.String("out", "BENCH_schedulers.json", "output JSON path")
	flag.Parse()

	var err error
	if b.dep, err = mlbs.PaperDeployment(b.n, b.seed); err != nil {
		fatal(err)
	}
	rep := report{
		Tool:      "mlb-bench",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Nodes:     b.n,
		Seed:      b.seed,
		DutyRate:  b.r,
	}
	// Each section appends its records to the report and prints one line
	// per record.
	sections := []struct {
		name string
		run  func(*report) error
	}{
		{"records", b.schedulers},
		{"reliability", b.reliability},
		{"channels", b.channels},
		{"agg", b.aggregate},
		{"models", b.models},
		{"improve", b.improve},
		{"obs", b.obs},
	}
	for _, sec := range sections {
		if err := sec.run(&rep); err != nil {
			fatal(fmt.Errorf("%s: %w", sec.name, err))
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d records)\n", *out, len(rep.Records))
}

func (b *bench) sync() mlbs.Instance { return mlbs.SyncInstance(b.dep.G, b.dep.Source) }

// duty is the deployment under a uniform duty cycle of rate r.
func (b *bench) duty(r int) mlbs.Instance {
	return mlbs.AsyncInstance(b.dep.G, b.dep.Source, mlbs.UniformWake(b.n, r, 9), 0)
}

// schedulers times every (scheduler, system) pair on the sync system and
// the -r duty cycle, after a warm-up run that also supplies the scientific
// outputs (latency, exactness).
func (b *bench) schedulers(rep *report) error {
	duty := fmt.Sprintf("duty-r%d", b.r)
	syncIn, dutyIn := b.sync(), b.duty(b.r)
	cases := []struct {
		name   string
		system string
		in     mlbs.Instance
		sched  mlbs.Scheduler
	}{
		{"sync/e-model", "sync", syncIn, mlbs.EModel()},
		{"sync/g-opt", "sync", syncIn, mlbs.GOPT()},
		{"sync/opt", "sync", syncIn, mlbs.OPT()},
		{"sync/26-approx", "sync", syncIn, mlbs.Baseline26()},
		{duty + "/e-model", "duty", dutyIn, mlbs.EModel()},
		{duty + "/g-opt", "duty", dutyIn, mlbs.GOPT()},
		{duty + "/17-approx", "duty", dutyIn, mlbs.Baseline17()},
	}
	for _, c := range cases {
		res, err := c.sched.Schedule(c.in)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		nsOp, allocsOp, bytesOp, err := measure(b.iters, func() error {
			_, err := c.sched.Schedule(c.in)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		rep.Records = append(rep.Records, record{
			Name:        c.name,
			System:      c.system,
			Scheduler:   res.Scheduler,
			Iterations:  b.iters,
			NsPerOp:     nsOp,
			AllocsPerOp: allocsOp,
			BytesPerOp:  bytesOp,
			LatencyPA:   res.Schedule.Latency(),
			Exact:       res.Exact,
			Expanded:    res.Stats.Expanded,
			MemoHits:    res.Stats.MemoHits,
		})
		fmt.Printf("%-20s %12d ns/op %8d allocs/op %6d latency\n",
			c.name, nsOp, allocsOp, res.Schedule.Latency())
	}
	return nil
}

func (b *bench) reliability(rep *report) error {
	for _, n := range []int{150, 300} {
		rr, err := benchReliability(n, b.seed, b.relTr)
		if err != nil {
			return fmt.Errorf("n=%d: %w", n, err)
		}
		rep.Reliability = append(rep.Reliability, rr)
		fmt.Printf("%-20s %12.0f replays/s %8.2f allocs/replay %8.4f delivery\n",
			rr.Name, rr.ReplaysPerSec, rr.AllocsPerReplay, rr.MeanDelivery)
	}
	return nil
}

func (b *bench) obs(rep *report) error {
	or, err := benchObs(150, b.seed, b.svcReqs)
	if err != nil {
		return err
	}
	rep.Obs = []obsRecord{or}
	fmt.Printf("%-28s %12d ns disabled %10d ns enabled %+6.2f%% (%d spans)\n",
		or.Name, or.DisabledNs, or.EnabledNs, or.OverheadPct, or.Spans)
	return nil
}

// channels sweeps the latency-vs-K curve: the G-OPT schedule of the paper
// deployment across K ∈ {1, 2, 4, 8} orthogonal channels, on the
// synchronous system, the -r duty cycle, and the light r=50 duty cycle
// (where conflict-induced re-wake waits dominate and channels collapse
// latency; the synchronous system is hop-bound by Theorem 1's d+2, so its
// curve is near-flat). Every schedule is validated and replayed before its
// numbers are reported.
func (b *bench) channels(rep *report) error {
	systems := []struct {
		name string
		in   mlbs.Instance
	}{
		{"sync", b.sync()},
		{fmt.Sprintf("duty-r%d", b.r), b.duty(b.r)},
		{"duty-r50", b.duty(50)},
	}
	for _, sys := range systems {
		k1 := 0
		for _, k := range []int{1, 2, 4, 8} {
			res, nsOp, err := checkedGOPT(mlbs.WithChannels(sys.in, k))
			if err != nil {
				return fmt.Errorf("%s K=%d: %w", sys.name, k, err)
			}
			lat := res.Schedule.Latency()
			if k == 1 {
				k1 = lat
			}
			rec := channelRecord{
				Name:         fmt.Sprintf("channels/%s-n%d/k%d", sys.name, b.n, k),
				Nodes:        b.n,
				System:       sys.name,
				Channels:     k,
				LatencySlots: lat,
				NsPerOp:      nsOp,
				Exact:        res.Exact,
			}
			if k1 > 0 {
				rec.LatencyVsK1 = float64(lat) / float64(k1)
			}
			rep.Channels = append(rep.Channels, rec)
			fmt.Printf("%-28s %6d latency %8.3f vs K=1 %12d ns/op\n",
				rec.Name, lat, rec.LatencyVsK1, nsOp)
		}
	}
	return nil
}

// aggregate sweeps the convergecast latency-vs-K curve: the SPT
// aggregation schedule of the paper deployment across K ∈ {1, 2, 4}
// orthogonal channels, on the synchronous system and the -r duty cycle
// (where the sink-ward merge waits on sleeping parents and channels buy
// the most). Every schedule is validated and replayed — all readings at
// the sink, zero collisions — before its numbers are reported.
func (b *bench) aggregate(rep *report) error {
	systems := []struct {
		name string
		in   mlbs.Instance
	}{
		{"sync", b.sync()},
		{fmt.Sprintf("duty-r%d", b.r), b.duty(b.r)},
	}
	for _, sys := range systems {
		k1 := 0
		for _, k := range []int{1, 2, 4} {
			in := mlbs.WithChannels(sys.in, k)
			res, err := mlbs.ScheduleAggregate(in)
			if err != nil {
				return fmt.Errorf("%s K=%d: %w", sys.name, k, err)
			}
			if err := res.Schedule.Validate(in); err != nil {
				return fmt.Errorf("%s K=%d: invalid schedule: %w", sys.name, k, err)
			}
			replay, err := mlbs.ReplayAggregate(in, res.Schedule)
			if err != nil {
				return fmt.Errorf("%s K=%d: %w", sys.name, k, err)
			}
			if !replay.Completed {
				return fmt.Errorf("%s K=%d: replay incomplete or collided", sys.name, k)
			}
			nsOp, _, _, err := measure(1, func() error {
				_, err := mlbs.ScheduleAggregate(in)
				return err
			})
			if err != nil {
				return err
			}
			lat := res.LatencySlots
			if k == 1 {
				k1 = lat
			}
			rec := aggRecord{
				Name:         fmt.Sprintf("agg/%s-n%d/k%d", sys.name, b.n, k),
				Nodes:        b.n,
				System:       sys.name,
				Channels:     k,
				LatencySlots: lat,
				NsPerOp:      nsOp,
			}
			if k1 > 0 {
				rec.LatencyVsK1 = float64(lat) / float64(k1)
			}
			rep.Agg = append(rep.Agg, rec)
			fmt.Printf("%-28s %6d latency %8.3f vs K=1 %12d ns/op\n",
				rec.Name, lat, rec.LatencyVsK1, nsOp)
		}
	}
	return nil
}

// models sweeps the latency-vs-interference-model curve: the G-OPT
// schedule of the synchronous paper deployment under the protocol (graph)
// model and two SINR settings of increasing strictness. Noise is zero, so
// the SINR decision is scale-invariant in the deployment geometry and the
// curve is a pure function of (n, seed, α, β).
func (b *bench) models(rep *report) error {
	models := []struct {
		name        string
		sinr        *mlbs.SINRParams
		alpha, beta float64
	}{
		{"graph", nil, 0, 0},
		{"sinr-a3b1", &mlbs.SINRParams{Alpha: 3, Beta: 1}, 3, 1},
		{"sinr-a3b2", &mlbs.SINRParams{Alpha: 3, Beta: 2}, 3, 2},
	}
	graphLat := 0
	for _, m := range models {
		res, nsOp, err := checkedGOPT(mlbs.WithSINR(b.sync(), m.sinr))
		if err != nil {
			return fmt.Errorf("%s: %w", m.name, err)
		}
		lat := res.Schedule.Latency()
		if m.sinr == nil {
			graphLat = lat
		}
		rec := modelRecord{
			Name:         fmt.Sprintf("models/sync-n%d/%s", b.n, m.name),
			Nodes:        b.n,
			Model:        m.name,
			Alpha:        m.alpha,
			Beta:         m.beta,
			LatencySlots: lat,
			NsPerOp:      nsOp,
			Exact:        res.Exact,
		}
		if graphLat > 0 {
			rec.LatencyVsGraph = float64(lat) / float64(graphLat)
		}
		rep.Models = append(rep.Models, rec)
		fmt.Printf("%-28s %6d latency %8.3f vs graph %12d ns/op\n",
			rec.Name, lat, rec.LatencyVsGraph, nsOp)
	}
	return nil
}

// improve runs the anytime improver over the baseline approximations
// under deterministic move budgets — MaxMoves instead of a wall-clock
// deadline, so the slot counts CI gates on cannot flake with machine load.
func (b *bench) improve(rep *report) error {
	systems := []struct {
		name  string
		in    mlbs.Instance
		sched mlbs.Scheduler
	}{
		{"sync", b.sync(), mlbs.Baseline26()},
		{fmt.Sprintf("duty-r%d", b.r), b.duty(b.r), mlbs.Baseline17()},
	}
	imp := mlbs.NewImprover()
	for _, sys := range systems {
		base, err := sys.sched.Schedule(sys.in)
		if err != nil {
			return fmt.Errorf("%s: %w", sys.name, err)
		}
		for _, moves := range []int{8, 64} {
			opt := mlbs.ImproveOptions{MaxMoves: moves}
			res, st, err := imp.Improve(sys.in, base.Schedule, opt)
			if err != nil {
				return fmt.Errorf("%s moves=%d: %w", sys.name, moves, err)
			}
			if err := res.Validate(sys.in); err != nil {
				return fmt.Errorf("%s moves=%d: invalid schedule: %w", sys.name, moves, err)
			}
			nsOp, _, _, err := measure(1, func() error {
				_, _, err := imp.Improve(sys.in, base.Schedule, opt)
				return err
			})
			if err != nil {
				return err
			}
			rec := improveRecord{
				Name:         fmt.Sprintf("improve/%s-n%d/moves%d", sys.name, b.n, moves),
				Nodes:        b.n,
				System:       sys.name,
				MaxMoves:     moves,
				InputSlots:   base.Schedule.Latency(),
				LatencySlots: res.Latency(),
				SlotsSaved:   st.SlotsSaved,
				Moves:        st.Moves,
				Searches:     st.Searches,
				Exact:        st.Exact,
				NsPerOp:      nsOp,
			}
			rep.Improve = append(rep.Improve, rec)
			fmt.Printf("%-28s %6d -> %4d slots (%d moves, exact=%v) %12d ns/op\n",
				rec.Name, rec.InputSlots, rec.LatencySlots, rec.Moves, rec.Exact, nsOp)
		}
	}
	return nil
}

// checkedGOPT schedules in with G-OPT, validates and replays the schedule
// under in's own model, and times one more search.
func checkedGOPT(in mlbs.Instance) (*mlbs.Result, int64, error) {
	sched := mlbs.GOPT()
	res, err := sched.Schedule(in)
	if err != nil {
		return nil, 0, err
	}
	if err := res.Schedule.Validate(in); err != nil {
		return nil, 0, fmt.Errorf("invalid schedule: %w", err)
	}
	rep, err := mlbs.Replay(in, res.Schedule)
	if err != nil {
		return nil, 0, err
	}
	if !rep.Completed {
		return nil, 0, errors.New("replay incomplete or collided")
	}
	nsOp, _, _, err := measure(1, func() error {
		_, err := sched.Schedule(in)
		return err
	})
	return res, nsOp, err
}

// benchObs measures what always-on tracing costs a cold plan: the same
// no_cache request stream against a fresh in-process service, once with no
// trace in the context (the production warm-path default) and once with a
// request trace attached (which also switches the engine to its
// depth-profiled search). The span count of a traced cold plan is a
// deterministic function of the request shape; the wall-clock overhead is
// the number the <2% design target speaks to. It is measured in paired
// rounds: each round times both modes back to back, alternating which
// runs first, and the overhead is the median of the rounds' enabled/
// disabled ratios. A noisy neighbour on a shared runner then taxes both
// halves of a pair instead of one side of the ratio, neither side always
// runs first, and a round that a stall skews anyway is outvoted.
func benchObs(n int, seed uint64, reqs int) (obsRecord, error) {
	if reqs < 8 {
		reqs = 8
	}
	var svcs []*mlbs.PlanService
	defer func() {
		for _, s := range svcs {
			s.Close()
		}
	}()
	spans := 0
	newSend := func(traced bool) (func() error, error) {
		svc := mlbs.NewService(mlbs.ServiceConfig{Workers: runtime.GOMAXPROCS(0)})
		svcs = append(svcs, svc)
		send := func() error {
			ctx := context.Background()
			var tr *mlbs.Trace
			if traced {
				tr = mlbs.NewTrace("/v1/plan")
				ctx = mlbs.TraceContext(ctx, tr)
			}
			resp, err := svc.Plan(ctx, mlbs.PlanRequest{
				Generator: &mlbs.PlanGenerator{N: n, Seed: seed},
				NoCache:   true,
			})
			if err != nil {
				return err
			}
			if snap := tr.Finish(resp.Digest, ""); snap != nil {
				spans = snap.Spans
			}
			return nil
		}
		return send, send() // first call materializes the deployment
	}
	sendDisabled, err := newSend(false)
	if err != nil {
		return obsRecord{}, err
	}
	sendEnabled, err := newSend(true)
	if err != nil {
		return obsRecord{}, err
	}
	const rounds = 9
	var disabled, enabled, ratios [rounds]float64
	for round := range rounds {
		first, second := sendDisabled, sendEnabled
		if round%2 == 1 {
			first, second = sendEnabled, sendDisabled
		}
		a, _, _, err := measure(reqs, first)
		if err != nil {
			return obsRecord{}, err
		}
		b, _, _, err := measure(reqs, second)
		if err != nil {
			return obsRecord{}, err
		}
		if round%2 == 1 {
			a, b = b, a
		}
		disabled[round], enabled[round] = float64(a), float64(b)
		ratios[round] = float64(b) / float64(max(a, 1))
	}
	median := func(v [rounds]float64) float64 {
		slices.Sort(v[:])
		return v[rounds/2]
	}
	rec := obsRecord{
		Name:        fmt.Sprintf("obs/cold-plan-n%d", n),
		Nodes:       n,
		Requests:    reqs,
		DisabledNs:  int64(median(disabled)),
		EnabledNs:   int64(median(enabled)),
		OverheadPct: 100 * (median(ratios) - 1),
		Spans:       spans,
	}
	return rec, nil
}

// benchReliability measures the Monte-Carlo engine: one warm-up batch,
// then a timed batch of `trials` lossy replays of the G-OPT schedule on
// the n-node sync paper topology at 5% per-link loss.
func benchReliability(n int, seed uint64, trials int) (reliabilityRecord, error) {
	if trials < 10 {
		trials = 10
	}
	dep, err := mlbs.PaperDeployment(n, seed)
	if err != nil {
		return reliabilityRecord{}, err
	}
	in := mlbs.SyncInstance(dep.G, dep.Source)
	res, err := mlbs.GOPT().Schedule(in)
	if err != nil {
		return reliabilityRecord{}, err
	}
	model := mlbs.ReliabilityLossModel{Rate: 0.05, Seed: seed}
	cfg := mlbs.ReliabilityConfig{Trials: trials, Workers: 1}
	est := mlbs.NewReliabilityEstimator()
	rel, err := est.Estimate(in, res.Schedule, model, cfg) // warm-up
	if err != nil {
		return reliabilityRecord{}, err
	}
	nsOp, allocsOp, _, err := measure(1, func() error {
		_, err := est.Estimate(in, res.Schedule, model, cfg)
		return err
	})
	if err != nil {
		return reliabilityRecord{}, err
	}
	nsPerReplay := nsOp / int64(trials)
	rec := reliabilityRecord{
		Name:            fmt.Sprintf("reliability/sync-n%d", n),
		Nodes:           n,
		Trials:          trials,
		LossRate:        model.Rate,
		NsPerReplay:     nsPerReplay,
		AllocsPerReplay: float64(allocsOp) / float64(trials),
		MeanDelivery:    rel.MeanDeliveryRatio,
	}
	if nsPerReplay > 0 {
		rec.ReplaysPerSec = 1e9 / float64(nsPerReplay)
	}
	return rec, nil
}

// measure runs fn a fixed number of times and reports per-op wall time and
// allocation counts (via runtime.MemStats deltas). Fixed iterations keep
// the tool's runtime predictable for CI, unlike testing.Benchmark's
// auto-scaling.
func measure(iters int, fn func() error) (nsPerOp, allocsPerOp, bytesPerOp int64, err error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := fn(); err != nil {
			return 0, 0, 0, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	k := int64(iters)
	return elapsed.Nanoseconds() / k,
		int64(m1.Mallocs-m0.Mallocs) / k,
		int64(m1.TotalAlloc-m0.TotalAlloc) / k,
		nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mlb-bench:", err)
	os.Exit(1)
}
