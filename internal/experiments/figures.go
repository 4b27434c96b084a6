package experiments

import (
	"fmt"
	"strconv"

	"mlbs/internal/baseline"
	"mlbs/internal/core"
	"mlbs/internal/dutycycle"
	"mlbs/internal/rng"
	"mlbs/internal/stats"
	"mlbs/internal/topology"
)

// Series names, matching the paper's legends.
const (
	Series26Approx    = "26-approx"
	Series17Approx    = "17-approx"
	SeriesOPT         = "OPT"
	SeriesGOPT        = "G-OPT"
	SeriesEModel      = "E-model"
	SeriesOPTAnalysis = "OPT-analysis"
	SeriesRef12Bound  = "bound of [12]"
)

// syncSchedulers builds the Figure 3 scheduler set.
func syncSchedulers(cfg Config) schedulerFn {
	return func() []namedScheduler {
		return []namedScheduler{
			{Series26Approx, baseline.New26(), false},
			{SeriesOPT, core.NewOPT(cfg.OPTBudget, cfg.OPTMaxSets), true},
			{SeriesGOPT, core.NewGOPT(cfg.GOPTBudget), true},
			{SeriesEModel, core.NewEModel(), false},
		}
	}
}

// asyncSchedulers builds the Figure 4/6 scheduler set.
func asyncSchedulers(cfg Config) schedulerFn {
	return func() []namedScheduler {
		return []namedScheduler{
			{Series17Approx, baseline.New17(), false},
			{SeriesOPT, core.NewOPT(cfg.OPTBudget, cfg.OPTMaxSets), true},
			{SeriesGOPT, core.NewGOPT(cfg.GOPTBudget), true},
			{SeriesEModel, core.NewEModel(), false},
		}
	}
}

// Figure3 regenerates the round-based experiment: P(A) latency (rounds)
// versus density for the 26-approximation, OPT, G-OPT, and E-model, plus
// the OPT-analysis curve d+2 of Theorem 1.
func Figure3(cfg Config) (*Figure, error) {
	cfg = Default(cfg)
	fig, err := sweep(cfg, "figure3",
		"P(A) in the round-based synchronous system",
		"rounds",
		[]string{Series26Approx, SeriesOPT, SeriesGOPT, SeriesEModel, SeriesOPTAnalysis},
		func(d *topology.Deployment, _ uint64) core.Instance {
			return core.Sync(d.G, d.Source)
		},
		syncSchedulers(cfg))
	if err != nil {
		return nil, err
	}
	return attachAnalysis(fig, cfg, func(d int) []analysisValue {
		return []analysisValue{{SeriesOPTAnalysis, core.SyncLatencyBound(d)}}
	})
}

// asyncFigure is the shared body of Figures 4 and 6.
func asyncFigure(cfg Config, id string, r int) (*Figure, error) {
	cfg = Default(cfg)
	cfg.Rate = r
	return sweep(cfg, id,
		"P(A) in the duty cycle system, r="+strconv.Itoa(r),
		"slots",
		[]string{Series17Approx, SeriesOPT, SeriesGOPT, SeriesEModel},
		func(d *topology.Deployment, trialSeed uint64) core.Instance {
			wakeSeed := trialSeed ^ 0xD0C5_11FE
			wake := dutycycle.NewUniform(d.G.N(), r, rng.SplitMix64(&wakeSeed), 0)
			return core.Async(d.G, d.Source, wake, 0)
		},
		asyncSchedulers(cfg))
}

// Figure4 regenerates the duty-cycle experiment at r = 10 slots.
func Figure4(cfg Config) (*Figure, error) { return asyncFigure(cfg, "figure4", 10) }

// Figure6 regenerates the light (2%) duty-cycle experiment at r = 50.
func Figure6(cfg Config) (*Figure, error) { return asyncFigure(cfg, "figure6", 50) }

// analysisValue is one analytical series value for a deployment.
type analysisValue struct {
	name  string
	value int
}

// analyticalFigure evaluates closed-form bounds over the same deployments
// the experimental figures use — Figures 5 and 7.
func analyticalFigure(cfg Config, id, title string, eval func(d int) []analysisValue, names []string) (*Figure, error) {
	cfg = Default(cfg)
	fig := &Figure{ID: id, Title: title, YLabel: "slots (bound)", Names: names}
	seedState := cfg.Seed
	for _, n := range cfg.NodeCounts {
		p := Point{
			N:         n,
			Density:   topology.PaperConfig(n).Density(),
			Series:    make(map[string]*stats.Sample),
			ExactFrac: make(map[string]float64),
		}
		for tr := 0; tr < cfg.Trials; tr++ {
			seed := rng.SplitMix64(&seedState)
			d, err := topology.Generate(topology.PaperConfig(n), seed)
			if err != nil {
				return nil, err
			}
			for _, av := range eval(d.SourceEcc) {
				s, ok := p.Series[av.name]
				if !ok {
					s = &stats.Sample{}
					p.Series[av.name] = s
				}
				s.AddInt(av.value)
			}
		}
		fig.Points = append(fig.Points, p)
	}
	return fig, nil
}

// Figure5 regenerates the analytical comparison at r = 10: Theorem 1's
// 2r(d+2) versus the 17k·d accumulation bound of [12].
func Figure5(cfg Config) (*Figure, error) {
	return analyticalFigure(cfg, "figure5",
		"analytical upper bounds in the duty cycle system, r=10",
		func(d int) []analysisValue {
			return []analysisValue{
				{SeriesOPTAnalysis, core.AsyncLatencyBound(10, d)},
				{SeriesRef12Bound, core.Ref12LatencyBound(10, d)},
			}
		},
		[]string{SeriesOPTAnalysis, SeriesRef12Bound})
}

// Figure7 regenerates the analytical comparison at r = 50.
func Figure7(cfg Config) (*Figure, error) {
	return analyticalFigure(cfg, "figure7",
		"analytical upper bounds in the duty cycle system, r=50",
		func(d int) []analysisValue {
			return []analysisValue{
				{SeriesOPTAnalysis, core.AsyncLatencyBound(50, d)},
				{SeriesRef12Bound, core.Ref12LatencyBound(50, d)},
			}
		},
		[]string{SeriesOPTAnalysis, SeriesRef12Bound})
}

// attachAnalysis appends analytical series to an experimental figure —
// Figure 3 plots OPT-analysis alongside the measured curves. Seeds are
// drawn in the same point-major order as sweep, so the bounds are
// evaluated on exactly the deployments the schedulers ran on.
func attachAnalysis(fig *Figure, cfg Config, eval func(d int) []analysisValue) (*Figure, error) {
	seedState := cfg.Seed
	for pi, n := range cfg.NodeCounts {
		for tr := 0; tr < cfg.Trials; tr++ {
			seed := rng.SplitMix64(&seedState)
			d, err := topology.Generate(topology.PaperConfig(n), seed)
			if err != nil {
				return nil, fmt.Errorf("analysis trial %d: %w", tr, err)
			}
			for _, av := range eval(d.SourceEcc) {
				s, ok := fig.Points[pi].Series[av.name]
				if !ok {
					s = &stats.Sample{}
					fig.Points[pi].Series[av.name] = s
				}
				s.AddInt(av.value)
			}
		}
	}
	return fig, nil
}
