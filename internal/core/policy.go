package core

import (
	"fmt"

	"mlbs/internal/bitset"
	"mlbs/internal/color"
	"mlbs/internal/emodel"
	"mlbs/internal/graph"
	"mlbs/internal/interference"
	"mlbs/internal/rng"
)

// SelectRule picks which greedy color fires, given the classes computed at
// the current slot. Implementations must be deterministic functions of
// their inputs (Random carries its own seeded stream). classes is the
// result of the latest sc.GreedyPartitionOracle, so rules needing
// per-class coverage sizes read sc.ClassCovered(i).Len() — the advance the
// partition already built, under every oracle — instead of materializing
// sets.
type SelectRule interface {
	Name() string
	// Select returns the index of the class to fire. classes is non-empty;
	// w is the current coverage (read-only).
	Select(g *graph.Graph, w bitset.Set, classes []color.Class, sc *color.Scratch) int
}

// EModelRule is the paper's Eq. 10: fire the color containing the
// candidate with the largest E_k over quadrants that still hold uncovered
// neighbors; break ties toward the class with more uncovered receivers,
// then the lowest class index.
type EModelRule struct {
	Table *emodel.Table
}

// Name implements SelectRule.
func (r EModelRule) Name() string { return "E-model" }

// Select implements SelectRule.
func (r EModelRule) Select(g *graph.Graph, w bitset.Set, classes []color.Class, sc *color.Scratch) int {
	bestIdx, bestScore, bestCover := 0, -1.0, -1
	for i, cls := range classes {
		score := -1.0
		for _, u := range cls {
			if s := r.Table.Score(u, w); s > score {
				score = s
			}
		}
		cover := sc.ClassCovered(i).Len()
		if score > bestScore || (score == bestScore && cover > bestCover) {
			bestIdx, bestScore, bestCover = i, score, cover
		}
	}
	return bestIdx
}

// EnergyAwareRule is the Section VII "energy saving" extension: it keeps
// Eq. 10's max-E primary criterion but breaks ties toward the color that
// covers the most nodes with the fewest transmitters — each transmission
// costs a slot of TX power, so among latency-equivalent choices the rule
// drains batteries slowest. With unique scores it coincides with EModelRule.
type EnergyAwareRule struct {
	Table *emodel.Table
}

// Name implements SelectRule.
func (r EnergyAwareRule) Name() string { return "E-model/energy" }

// Select implements SelectRule.
func (r EnergyAwareRule) Select(g *graph.Graph, w bitset.Set, classes []color.Class, sc *color.Scratch) int {
	bestIdx := 0
	bestScore, bestCover, bestSenders := -1.0, -1, 1<<30
	for i, cls := range classes {
		score := -1.0
		for _, u := range cls {
			if s := r.Table.Score(u, w); s > score {
				score = s
			}
		}
		cover := sc.ClassCovered(i).Len()
		senders := len(cls)
		better := score > bestScore ||
			(score == bestScore && cover > bestCover) ||
			(score == bestScore && cover == bestCover && senders < bestSenders)
		if better {
			bestIdx, bestScore, bestCover, bestSenders = i, score, cover, senders
		}
	}
	return bestIdx
}

// NewEnergyAware returns the Section VII "energy saving" extension (Eq.
// 10's selection with ties broken toward fewer transmitters) built out as
// a selection rule.
func NewEnergyAware() *Policy {
	return &Policy{
		RuleName: "E-model/energy",
		NewRule: func(in Instance) (SelectRule, error) {
			tab, err := emodel.New(in.G, in.Wake)
			if err != nil {
				return nil, fmt.Errorf("core: E-model/energy: %w", err)
			}
			return EnergyAwareRule{Table: tab}, nil
		},
	}
}

// MaxCoverageRule fires the class covering the most uncovered nodes — an
// ablation isolating how much of E-model's gain is mere utilization.
type MaxCoverageRule struct{}

// Name implements SelectRule.
func (MaxCoverageRule) Name() string { return "max-coverage" }

// Select implements SelectRule.
func (MaxCoverageRule) Select(g *graph.Graph, w bitset.Set, classes []color.Class, sc *color.Scratch) int {
	best, bestCover := 0, -1
	for i := range classes {
		if c := sc.ClassCovered(i).Len(); c > bestCover {
			best, bestCover = i, c
		}
	}
	return best
}

// FirstColorRule always fires greedy color 1 — the plain greedy scheme
// with pipelining but no cross-color selection intelligence.
type FirstColorRule struct{}

// Name implements SelectRule.
func (FirstColorRule) Name() string { return "first-color" }

// Select implements SelectRule.
func (FirstColorRule) Select(*graph.Graph, bitset.Set, []color.Class, *color.Scratch) int { return 0 }

// RandomRule fires a uniformly random class — the ablation floor.
type RandomRule struct{ Src *rng.Source }

// Name implements SelectRule.
func (RandomRule) Name() string { return "random" }

// Select implements SelectRule.
func (r RandomRule) Select(_ *graph.Graph, _ bitset.Set, classes []color.Class, _ *color.Scratch) int {
	return r.Src.Intn(len(classes))
}

// Policy runs the extended greedy color scheme as an online policy: at
// every slot with an awake candidate it computes the greedy classes
// (Algorithm 1) and fires the class chosen by Rule. With an EModelRule this
// is the paper's E-model scheduler; other rules are ablations.
type Policy struct {
	RuleName string
	// NewRule builds the selection rule for an instance (the E-model table
	// depends on the graph and wake schedule, so rules are instance-scoped).
	NewRule func(in Instance) (SelectRule, error)
}

// NewEModel returns the paper's practical scheduler (Algorithm 2 + Eq. 10).
func NewEModel() *Policy {
	return &Policy{
		RuleName: "E-model",
		NewRule: func(in Instance) (SelectRule, error) {
			tab, err := emodel.New(in.G, in.Wake)
			if err != nil {
				return nil, fmt.Errorf("core: E-model: %w", err)
			}
			return EModelRule{Table: tab}, nil
		},
	}
}

// NewPolicy wraps a stateless rule into a scheduler.
func NewPolicy(name string, rule SelectRule) *Policy {
	return &Policy{
		RuleName: name,
		NewRule:  func(Instance) (SelectRule, error) { return rule, nil },
	}
}

// Name implements Scheduler.
func (p *Policy) Name() string { return p.RuleName }

// Schedule implements Scheduler.
func (p *Policy) Schedule(in Instance) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	var sc color.Scratch
	var ib interference.Binder
	return p.rollout(in, &sc, in.Oracle(&ib))
}

// rollout is Schedule on an instance the caller has already validated —
// the search's own default incumbent skips the second connectivity check
// — with the color scratch and the bound interference oracle supplied by
// the caller: the search lends its own, so the rollout adds no buffers.
// sc serves the whole rollout; the only per-advance allocations are the
// schedule's own sender/receiver lists, which outlive the loop.
func (p *Policy) rollout(in Instance, sc *color.Scratch, oracle interference.Oracle) (*Result, error) {
	rule, err := p.NewRule(in)
	if err != nil {
		return nil, err
	}
	n := in.G.N()
	w := in.initialCoverage()
	sched := &Schedule{Source: in.Source, Start: in.Start}

	// Safety horizon: every advance covers ≥1 node and arrives within one
	// wake period of the previous one, so a complete broadcast needs fewer
	// than n·(period+1) slots past the start.
	horizon := in.Start + n*(in.Wake.Period()+1) + in.Wake.Period()
	t := in.Start
	for w.Len() < n {
		slot, cands, ok := nextUsefulSlot(in.G, in.Wake, w, t, sc)
		if !ok {
			return nil, fmt.Errorf("core: no candidates with coverage %v (disconnected?)", w)
		}
		if slot > horizon {
			return nil, fmt.Errorf("core: policy exceeded horizon %d (wake schedule starves candidates)", horizon)
		}
		classes := sc.GreedyPartitionOracle(in.G, w, cands, oracle)
		pick := rule.Select(in.G, w, classes, sc)
		if pick < 0 || pick >= len(classes) {
			return nil, fmt.Errorf("core: rule %s selected class %d of %d", rule.Name(), pick, len(classes))
		}
		covered := sc.ClassCovered(pick)
		sched.Advances = append(sched.Advances, Advance{
			T:       slot,
			Senders: append([]graph.NodeID(nil), classes[pick]...),
			Covered: covered.Members(),
		})
		w.UnionWith(covered)
		t = slot + 1
	}
	return &Result{
		Scheduler: p.Name(),
		Schedule:  sched,
		PA:        sched.PA(),
	}, nil
}
