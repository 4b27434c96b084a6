// Command mlb-churn replays seeded multi-hour churn traces against a
// paper-topology deployment: Poisson node failures, joins and position
// jitter evolve the network event by event, and each delta is repaired
// both incrementally (blast-radius classification + residual search) and
// by a cold from-scratch search, so the trade can be measured directly.
//
// Usage:
//
//	mlb-churn [-n 300] [-seed 1] [-r 0] [-scheduler gopt] [-budget 0]
//	          [-hours 2] [-fails 6] [-joins 3] [-jitters 12]
//	          [-jitter-sigma 1] [-batch 1] [-trace-seed 1]
//	          [-trace-out trace.json] [-out BENCH_churn.json]
//
// Every repaired schedule is validated (model constraints + collision-free
// replay + full live-node coverage); any violation fails the run. The -out
// JSON reports replan latency percentiles, the incremental-vs-cold
// speedup, the latency-regret distribution and the strategy mix, in the
// BENCH_*.json convention mlb-bench established.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"mlbs"
)

type quantilesNs struct {
	P50  int64 `json:"p50"`
	P90  int64 `json:"p90"`
	P99  int64 `json:"p99"`
	Max  int64 `json:"max"`
	Mean int64 `json:"mean"`
}

type regretStats struct {
	Mean        float64 `json:"mean"`
	P50         int     `json:"p50"`
	P90         int     `json:"p90"`
	Max         int     `json:"max"`
	Min         int     `json:"min"`
	NonzeroFrac float64 `json:"nonzero_frac"`
}

type output struct {
	Tool      string `json:"tool"`
	GoVersion string `json:"go_version"`
	Timestamp string `json:"timestamp"`
	Nodes     int    `json:"nodes"`
	Seed      uint64 `json:"seed"`
	DutyRate  int    `json:"duty_rate"`
	Scheduler string `json:"scheduler"`
	Batch     int    `json:"events_per_replan"`

	TraceEvents  int     `json:"trace_events"`
	TraceHours   float64 `json:"trace_hours"`
	Replans      int     `json:"replans"`
	Prefix       int     `json:"strategy_prefix"`
	Incremental  int     `json:"strategy_incremental"`
	Cold         int     `json:"strategy_cold"`
	KeptFracMean float64 `json:"kept_frac_mean"`

	IncNs         quantilesNs `json:"incremental_ns"`
	ColdNs        quantilesNs `json:"cold_ns"`
	MedianSpeedup float64     `json:"median_speedup"`
	Regret        regretStats `json:"regret"`
	Validated     bool        `json:"validated"`
}

func main() {
	var (
		n           = flag.Int("n", 300, "node count of the paper deployment")
		seed        = flag.Uint64("seed", 1, "deployment seed")
		dutyRate    = flag.Int("r", 0, "duty-cycle rate (0/1 = synchronous)")
		scheduler   = flag.String("scheduler", "gopt", "search engine: gopt|opt")
		budget      = flag.Int("budget", 0, "search budget (0 = default)")
		hours       = flag.Float64("hours", 2, "trace horizon in hours")
		fails       = flag.Float64("fails", 6, "node failures per hour")
		joins       = flag.Float64("joins", 3, "node joins per hour")
		jitters     = flag.Float64("jitters", 12, "position jitters per hour")
		jitterSigma = flag.Float64("jitter-sigma", 1, "jitter displacement stddev (feet)")
		batch       = flag.Int("batch", 1, "events folded into one delta per replan")
		traceSeed   = flag.Uint64("trace-seed", 1, "churn trace seed")
		traceOut    = flag.String("trace-out", "", "also write the generated trace JSON here")
		outPath     = flag.String("out", "BENCH_churn.json", "output JSON path")
	)
	flag.Parse()
	if err := run(*n, *seed, *dutyRate, *scheduler, *budget, *hours, *fails, *joins,
		*jitters, *jitterSigma, *batch, *traceSeed, *traceOut, *outPath); err != nil {
		fmt.Fprintln(os.Stderr, "mlb-churn:", err)
		os.Exit(1)
	}
}

func newEngine(scheduler string, budget int) (mlbs.Scheduler, error) {
	switch scheduler {
	case "gopt":
		return mlbs.NewReusableGOPT(budget), nil
	case "opt":
		return mlbs.NewReusableOPT(budget, 0), nil
	default:
		return nil, fmt.Errorf("unknown scheduler %q (want gopt|opt)", scheduler)
	}
}

func run(n int, seed uint64, dutyRate int, scheduler string, budget int,
	hours, fails, joins, jitters, jitterSigma float64, batch int,
	traceSeed uint64, traceOut, outPath string) error {
	if batch < 1 {
		batch = 1
	}
	incEngine, err := newEngine(scheduler, budget)
	if err != nil {
		return err
	}
	coldEngine, err := newEngine(scheduler, budget)
	if err != nil {
		return err
	}
	base, err := (mlbs.PlanGenerator{N: n, Seed: seed, DutyRate: dutyRate}).Instance()
	if err != nil {
		return err
	}

	trace, err := mlbs.GenerateChurnTrace(base, mlbs.ChurnTraceConfig{
		HorizonHours:   hours,
		FailsPerHour:   fails,
		JoinsPerHour:   joins,
		JittersPerHour: jitters,
		JitterSigma:    jitterSigma,
	}, traceSeed)
	if err != nil {
		return err
	}
	if traceOut != "" {
		data, err := mlbs.EncodeChurnTrace(trace)
		if err != nil {
			return err
		}
		if err := os.WriteFile(traceOut, data, 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("mlb-churn: n=%d r=%d trace=%d events over %.1f h (%d fails, %d joins)\n",
		n, dutyRate, len(trace.Events), hours, countKind(trace, mlbs.ChurnNodeFail), countKind(trace, mlbs.ChurnNodeJoin))

	rp := mlbs.NewReplanner(mlbs.ReplannerConfig{Scheduler: incEngine})
	replayer := mlbs.NewReplayer()

	basePlan, err := coldEngine.Schedule(base)
	if err != nil {
		return err
	}

	out := output{
		Tool:      "mlb-churn",
		GoVersion: runtime.Version(),
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Nodes:     n, Seed: seed, DutyRate: dutyRate, Scheduler: scheduler,
		Batch: batch, TraceEvents: len(trace.Events), TraceHours: hours,
		Validated: true,
	}
	var incNs, coldNs []int64
	var regrets []int
	var keptFracSum float64

	cur, sched := base, basePlan.Schedule
	for i := 0; i < len(trace.Events); i += batch {
		j := min(i+batch, len(trace.Events))
		d := trace.Delta(i, j)

		t0 := time.Now()
		rr, err := rp.Replan(cur, sched, d)
		inc := time.Since(t0)
		if err != nil {
			return fmt.Errorf("replan at event %d: %w", i, err)
		}

		t1 := time.Now()
		coldRes, err := coldEngine.Schedule(rr.Instance)
		cold := time.Since(t1)
		if err != nil {
			return fmt.Errorf("cold search at event %d: %w", i, err)
		}

		// Validate the repaired plan the hard way: model constraints plus
		// collision-free replay with full live-node coverage.
		if err := rr.Result.Schedule.Validate(rr.Instance); err != nil {
			return fmt.Errorf("repaired plan invalid at event %d (%s): %w", i, rr.Strategy, err)
		}
		rep, err := replayer.Replay(rr.Instance, rr.Result.Schedule)
		if err != nil {
			return fmt.Errorf("replay at event %d: %w", i, err)
		}
		if !rep.Completed {
			return fmt.Errorf("replay incomplete or collided at event %d (%s)", i, rr.Strategy)
		}

		incNs = append(incNs, inc.Nanoseconds())
		coldNs = append(coldNs, cold.Nanoseconds())
		regrets = append(regrets, rr.Result.PA-coldRes.PA)
		if rr.BaseAdvances > 0 {
			keptFracSum += float64(rr.KeptAdvances) / float64(rr.BaseAdvances)
		}
		switch rr.Strategy {
		case mlbs.ChurnStrategy("prefix"):
			out.Prefix++
		case mlbs.ChurnStrategy("incremental"):
			out.Incremental++
		default:
			out.Cold++
		}
		out.Replans++
		cur, sched = rr.Instance, rr.Result.Schedule
	}
	if out.Replans == 0 {
		return fmt.Errorf("trace produced no events; raise -hours or the rates")
	}

	out.KeptFracMean = keptFracSum / float64(out.Replans)
	out.IncNs = summarizeNs(incNs)
	out.ColdNs = summarizeNs(coldNs)
	if out.IncNs.P50 > 0 {
		out.MedianSpeedup = float64(out.ColdNs.P50) / float64(out.IncNs.P50)
	}
	out.Regret = summarizeRegret(regrets)

	fmt.Printf("  replans=%d (prefix %d, incremental %d, cold %d), kept %.0f%% of advances on average\n",
		out.Replans, out.Prefix, out.Incremental, out.Cold, 100*out.KeptFracMean)
	fmt.Printf("  incremental p50=%s p99=%s | cold p50=%s | median speedup %.1f×\n",
		time.Duration(out.IncNs.P50), time.Duration(out.IncNs.P99),
		time.Duration(out.ColdNs.P50), out.MedianSpeedup)
	fmt.Printf("  regret: mean %.2f slots, p90 %d, max %d (nonzero in %.0f%% of replans)\n",
		out.Regret.Mean, out.Regret.P90, out.Regret.Max, 100*out.Regret.NonzeroFrac)

	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, append(data, '\n'), 0o644)
}

func countKind(tr *mlbs.ChurnTrace, k mlbs.ChurnKind) int {
	n := 0
	for _, te := range tr.Events {
		if te.Kind == k {
			n++
		}
	}
	return n
}

func summarizeNs(xs []int64) quantilesNs {
	sorted := append([]int64(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	at := func(q float64) int64 {
		i := int(q * float64(len(sorted)-1))
		return sorted[i]
	}
	var sum int64
	for _, x := range sorted {
		sum += x
	}
	return quantilesNs{
		P50: at(0.50), P90: at(0.90), P99: at(0.99),
		Max: sorted[len(sorted)-1], Mean: sum / int64(len(sorted)),
	}
}

func summarizeRegret(xs []int) regretStats {
	sorted := append([]int(nil), xs...)
	sort.Ints(sorted)
	at := func(q float64) int {
		i := int(q * float64(len(sorted)-1))
		return sorted[i]
	}
	sum, nonzero := 0, 0
	for _, x := range sorted {
		sum += x
		if x != 0 {
			nonzero++
		}
	}
	return regretStats{
		Mean: float64(sum) / float64(len(sorted)),
		P50:  at(0.50), P90: at(0.90),
		Max: sorted[len(sorted)-1], Min: sorted[0],
		NonzeroFrac: float64(nonzero) / float64(len(sorted)),
	}
}
