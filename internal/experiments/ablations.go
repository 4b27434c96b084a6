package experiments

import (
	"fmt"
	"sort"
	"strings"

	"mlbs/internal/core"
	"mlbs/internal/dutycycle"
	"mlbs/internal/localized"
	"mlbs/internal/rng"
	"mlbs/internal/sim"
	"mlbs/internal/stats"
	"mlbs/internal/topology"
)

// Ablation is a named-variant comparison at one deployment setting: for
// every variant, the latency sample across trials plus optional extras.
type Ablation struct {
	ID       string
	Title    string
	Variants []string
	Latency  map[string]*stats.Sample
	Extra    map[string]map[string]*stats.Sample // metric → variant → sample
}

// Format renders the ablation as an aligned table.
func (a *Ablation) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", a.ID, a.Title)
	metrics := make([]string, 0, len(a.Extra))
	for m := range a.Extra {
		metrics = append(metrics, m)
	}
	sort.Strings(metrics)
	fmt.Fprintf(&b, "%-26s %-18s", "variant", "latency")
	for _, m := range metrics {
		fmt.Fprintf(&b, " %-18s", m)
	}
	b.WriteByte('\n')
	for _, v := range a.Variants {
		fmt.Fprintf(&b, "%-26s %-18s", v, a.Latency[v].String())
		for _, m := range metrics {
			if s := a.Extra[m][v]; s != nil {
				fmt.Fprintf(&b, " %-18s", s.String())
			} else {
				fmt.Fprintf(&b, " %-18s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func newAblation(id, title string, variants []string) *Ablation {
	a := &Ablation{
		ID:       id,
		Title:    title,
		Variants: variants,
		Latency:  make(map[string]*stats.Sample),
		Extra:    make(map[string]map[string]*stats.Sample),
	}
	for _, v := range variants {
		a.Latency[v] = &stats.Sample{}
	}
	return a
}

func (a *Ablation) extra(metric, variant string) *stats.Sample {
	m, ok := a.Extra[metric]
	if !ok {
		m = make(map[string]*stats.Sample)
		a.Extra[metric] = m
	}
	s, ok := m[variant]
	if !ok {
		s = &stats.Sample{}
		m[variant] = s
	}
	return s
}

// ablationDeployments draws the trial deployments for an ablation at a
// single density (the paper's middle point, n = 150, unless overridden by
// cfg.NodeCounts[0]).
func ablationDeployments(cfg Config) ([]*topology.Deployment, error) {
	cfg = Default(cfg)
	n := 150
	if len(cfg.NodeCounts) > 0 {
		n = cfg.NodeCounts[0]
	}
	return topology.GenerateBatch(topology.PaperConfig(n), cfg.Seed, cfg.Trials)
}

// AblationSelection compares color-selection rules under the same greedy
// colors: Eq. 10's max-E, max-coverage, first-color, and uniform-random
// selection.
func AblationSelection(cfg Config) (*Ablation, error) {
	deps, err := ablationDeployments(cfg)
	if err != nil {
		return nil, err
	}
	variants := []string{"max-E", "max-coverage", "first-color", "random"}
	a := newAblation("ablation-selection", "color selection rule (sync, greedy colors fixed)", variants)
	for ti, d := range deps {
		in := core.Sync(d.G, d.Source)
		schedulers := map[string]core.Scheduler{
			"max-E":        core.NewEModel(),
			"max-coverage": core.NewPolicy("max-coverage", core.MaxCoverageRule{}),
			"first-color":  core.NewPolicy("first-color", core.FirstColorRule{}),
			"random":       core.NewPolicy("random", core.RandomRule{Src: rng.New(cfg.Seed ^ uint64(ti))}),
		}
		for _, v := range variants {
			res, err := schedulers[v].Schedule(in)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", v, err)
			}
			if err := res.Schedule.Validate(in); err != nil {
				return nil, fmt.Errorf("%s: %w", v, err)
			}
			a.Latency[v].AddInt(res.Schedule.Latency())
		}
	}
	return a, nil
}

// AblationBudget measures what the search budget buys G-OPT: latency and
// proof rate per budget, on the duty-cycle system where searches are
// hardest.
func AblationBudget(cfg Config, budgets []int) (*Ablation, error) {
	deps, err := ablationDeployments(cfg)
	if err != nil {
		return nil, err
	}
	if len(budgets) == 0 {
		budgets = []int{10, 100, 1_000, 100_000}
	}
	variants := make([]string, len(budgets))
	for i, b := range budgets {
		variants[i] = fmt.Sprintf("budget=%d", b)
	}
	a := newAblation("ablation-budget", "G-OPT search budget (duty cycle r=10)", variants)
	for ti, d := range deps {
		wakeSeed := cfg.Seed ^ uint64(ti)<<8
		wake := dutycycle.NewUniform(d.G.N(), 10, wakeSeed, 0)
		in := core.Async(d.G, d.Source, wake, 0)
		for i, budget := range budgets {
			res, err := core.NewGOPT(budget).Schedule(in)
			if err != nil {
				return nil, err
			}
			v := variants[i]
			a.Latency[v].AddInt(res.Schedule.Latency())
			exact := 0.0
			if res.Exact {
				exact = 1
			}
			a.extra("exact-rate", v).Add(exact)
			a.extra("states", v).AddInt(res.Stats.Expanded)
		}
	}
	return a, nil
}

// AblationWakeFamily compares the paper's uniform-per-cycle wake schedule
// with the constant-phase staggered family at the same rate: staggered
// links have a fixed CWT forever (good links stay good, bad links stay
// bad), while uniform redraws per cycle — this changes both the optimum
// and how well the proactive mean-CWT E estimates track reality.
func AblationWakeFamily(cfg Config) (*Ablation, error) {
	deps, err := ablationDeployments(cfg)
	if err != nil {
		return nil, err
	}
	const r = 10
	variants := []string{"uniform/G-OPT", "uniform/E-model", "staggered/G-OPT", "staggered/E-model"}
	a := newAblation("ablation-wake-family", "wake schedule family at r=10 (slots)", variants)
	for ti, d := range deps {
		n := d.G.N()
		seed := cfg.Seed ^ uint64(ti)<<16
		families := map[string]dutycycle.Schedule{
			"uniform":   dutycycle.NewUniform(n, r, seed, 0),
			"staggered": dutycycle.NewStaggered(n, r, seed),
		}
		for fam, wake := range families {
			in := core.Async(d.G, d.Source, wake, 0)
			for name, s := range map[string]core.Scheduler{
				"G-OPT":   core.NewGOPT(cfg.GOPTBudget),
				"E-model": core.NewEModel(),
			} {
				res, err := s.Schedule(in)
				if err != nil {
					return nil, fmt.Errorf("%s/%s: %w", fam, name, err)
				}
				if err := res.Schedule.Validate(in); err != nil {
					return nil, fmt.Errorf("%s/%s: %w", fam, name, err)
				}
				a.Latency[fam+"/"+name].AddInt(res.Schedule.Latency())
			}
		}
	}
	return a, nil
}

// AblationRobustness runs the offline E-model plan and the online
// localized scheme over increasingly lossy channels, quantifying the
// fragility-of-offline-plans argument of Section VI: coverage fraction for
// the plan, completion latency and retransmission overhead for the scheme.
func AblationRobustness(cfg Config, rates []float64) (*Ablation, error) {
	deps, err := ablationDeployments(cfg)
	if err != nil {
		return nil, err
	}
	if len(rates) == 0 {
		rates = []float64{0, 0.1, 0.2, 0.3}
	}
	variants := make([]string, len(rates))
	for i, r := range rates {
		variants[i] = fmt.Sprintf("loss=%.0f%%", 100*r)
	}
	a := newAblation("ablation-robustness", "lossy channel: offline plan vs localized retransmission (sync)", variants)
	for ti, d := range deps {
		in := core.Sync(d.G, d.Source)
		plan, err := core.NewEModel().Schedule(in)
		if err != nil {
			return nil, err
		}
		for i, rate := range rates {
			v := variants[i]
			loss := sim.IIDLoss(rate, cfg.Seed^uint64(ti*31+i))
			planRep, err := sim.ReplayLossy(in, plan.Schedule, loss)
			if err != nil {
				return nil, err
			}
			covered := 0
			for _, at := range planRep.CoveredAt {
				if at >= 0 {
					covered++
				}
			}
			a.extra("plan-coverage", v).Add(float64(covered) / float64(d.G.N()))

			locRep, _, err := localized.RunLossy(in, loss)
			if err != nil {
				return nil, err
			}
			if !locRep.Completed {
				return nil, fmt.Errorf("localized failed to complete at loss %.2f", rate)
			}
			a.Latency[v].AddInt(locRep.Latency())
			a.extra("retransmit-tx", v).AddInt(locRep.Usage.Transmissions)
		}
	}
	return a, nil
}
