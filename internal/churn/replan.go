package churn

import (
	"errors"
	"fmt"
	"slices"

	"mlbs/internal/core"
	"mlbs/internal/graph"
)

// Strategy names how a repaired plan was obtained.
type Strategy string

const (
	// StrategyPrefix: the surviving prefix of the base schedule already
	// covers the mutated node set; no search ran.
	StrategyPrefix Strategy = "prefix"
	// StrategyIncremental: the surviving prefix was kept and the core
	// engine searched only the stranded remainder, with the prefix's
	// coverage as pre-covered state.
	StrategyIncremental Strategy = "incremental"
	// StrategyCold: the delta invalidated too much (or repair failed);
	// the engine searched the mutated instance from scratch.
	StrategyCold Strategy = "cold"
)

// DefaultMinKeptFrac is the incremental/cold decision boundary: when the
// surviving prefix is shorter than this fraction of the base schedule's
// advances, the classification has lost most of the plan's structure and a
// cold search is usually as fast as a residual one.
const DefaultMinKeptFrac = 0.25

// ReplanConfig tunes a Replanner.
type ReplanConfig struct {
	// Scheduler runs the residual and cold searches. Default: a reusable
	// G-OPT engine with the default budget. The Replanner inherits its
	// concurrency contract — a Replanner built on an Engine is
	// single-goroutine, like the engine itself.
	Scheduler core.Scheduler
	// MinKeptFrac is the incremental/cold boundary (see
	// DefaultMinKeptFrac); 0 selects the default. Negative values force a
	// cold search on every delta — prefix reuse included — the ablation
	// switch for measuring what incrementality buys.
	MinKeptFrac float64
}

// ReplanResult is a repaired plan plus the classification that produced it.
type ReplanResult struct {
	// Result holds the repaired (validated) plan for the mutated instance.
	// It is freshly allocated per call and shares no memory with the base
	// schedule: callers may cache it as an immutable value.
	Result *core.Result
	// Instance is the mutated instance the plan answers.
	Instance core.Instance
	// Mapping relates base node IDs to mutated node IDs.
	Mapping Mapping
	// Strategy says how the plan was obtained.
	Strategy Strategy
	// KeptAdvances / BaseAdvances quantify the blast radius: how much of
	// the base schedule survived classification.
	KeptAdvances int
	BaseAdvances int
}

// Replanner repairs cached schedules after topology deltas. Its slot
// walker and the underlying search engine's arenas are reused across
// calls; like a core.Engine it is NOT safe for concurrent use — the
// serving layer gives each worker goroutine its own.
type Replanner struct {
	sched       core.Scheduler
	minKeptFrac float64

	// walk classifies the base schedule against the mutated instance, its
	// interference oracle included, so a kept prefix stays legal under
	// SINR too. After classify it holds the kept prefix's coverage.
	walk core.SlotWalker
}

// NewReplanner builds a replanner; see ReplanConfig for defaults.
func NewReplanner(cfg ReplanConfig) *Replanner {
	if cfg.Scheduler == nil {
		cfg.Scheduler = core.NewGOPT(0).NewEngine()
	}
	if cfg.MinKeptFrac == 0 {
		cfg.MinKeptFrac = DefaultMinKeptFrac
	}
	return &Replanner{sched: cfg.Scheduler, minKeptFrac: cfg.MinKeptFrac}
}

// Replan applies the delta to the base instance and repairs basePlan for
// the mutated topology:
//
//  1. Classify the blast radius: walk the base schedule in time order on
//     a core.SlotWalker over the mutated instance, remapping senders and
//     re-deriving coverage against the mutated graph; the walk stops at
//     the first slot the walker rejects (failed sender, sender renumbered
//     out of its wake slots, new conflict at an uncovered node) or where
//     an advance has nothing left to cover.
//  2. If the surviving prefix already covers every live node, it IS the
//     repaired plan (StrategyPrefix).
//  3. Otherwise run the engine over the stranded remainder only: the
//     mutated instance with the prefix's coverage as pre-covered state and
//     the first slot after the prefix as start (StrategyIncremental) — or
//     from scratch when the prefix kept less than MinKeptFrac of the base
//     advances (StrategyCold).
//
// Every returned plan is valid for the mutated instance. A prefix plan is
// valid by construction: classify keeps only slots the mutated instance's
// core.SlotWalker — the walker Schedule.Validate runs — accepted, with
// coverage re-derived by that walk, and the prefix strategy is taken only
// when that walk covered every node (a property test pins that every kept
// prefix passes Schedule.Validate). An incremental plan is validated as a
// whole, and one that fails validation falls back to cold search rather
// than returning a bad plan. A cold plan is the engine's own result.
func (rp *Replanner) Replan(base core.Instance, basePlan *core.Schedule, d Delta) (*ReplanResult, error) {
	if basePlan == nil {
		return nil, errors.New("churn: nil base schedule")
	}
	mutated, m, err := Apply(base, d)
	if err != nil {
		return nil, err
	}
	kept := rp.classify(mutated, basePlan, m)
	out := &ReplanResult{
		Instance:     mutated,
		Mapping:      m,
		KeptAdvances: len(kept),
		BaseAdvances: len(basePlan.Advances),
	}

	n := mutated.G.N()
	if rp.minKeptFrac >= 0 && rp.walk.Covered().Len() == n {
		sched := &core.Schedule{Source: mutated.Source, Start: mutated.Start, Advances: kept}
		out.Strategy = StrategyPrefix
		out.Result = &core.Result{
			Scheduler: "replan-prefix(" + rp.sched.Name() + ")",
			Schedule:  sched,
			PA:        sched.PA(),
		}
		return out, nil
	}

	incremental := rp.minKeptFrac >= 0 && len(kept) > 0 &&
		float64(len(kept)) >= rp.minKeptFrac*float64(len(basePlan.Advances))
	if incremental {
		residual := mutated
		residual.Start = kept[len(kept)-1].T + 1
		residual.PreCovered = rp.preCoveredList(mutated.Source)
		res, err := rp.sched.Schedule(residual)
		if err == nil {
			sched := &core.Schedule{
				Source:   mutated.Source,
				Start:    mutated.Start,
				Advances: append(slices.Clip(kept), res.Schedule.Advances...),
			}
			if err := sched.Validate(mutated); err == nil {
				out.Strategy = StrategyIncremental
				out.Result = &core.Result{
					Scheduler: "replan-incremental(" + rp.sched.Name() + ")",
					Schedule:  sched,
					PA:        sched.PA(),
					Stats:     res.Stats,
				}
				return out, nil
			}
		}
		// Residual search failed or produced an invalid composite — the
		// cold path below always works on a valid mutated instance.
	}

	res, err := rp.sched.Schedule(mutated)
	if err != nil {
		return nil, fmt.Errorf("churn: cold search on mutated instance: %w", err)
	}
	out.Strategy = StrategyCold
	out.KeptAdvances = 0
	// Cold output is the engine's own result, untouched — scheduler name
	// included — so a cold repair is byte-for-byte what a direct search
	// of the mutated instance produces (the serving layer relies on this
	// to publish cold repairs into the plan cache).
	out.Result = res
	return out, nil
}

// classify walks the base schedule against the mutated instance, returning
// the longest valid prefix (with coverage re-derived per advance) and
// leaving the prefix's coverage in rp.walk. The walk proceeds slot by
// slot: a slot's advances (one per channel) survive or fall together, so
// the kept prefix is always a whole number of slots and its per-channel
// coverage attribution stays canonical.
func (rp *Replanner) classify(mutated core.Instance, basePlan *core.Schedule, m Mapping) []core.Advance {
	rp.walk.Reset(mutated)
	var kept []core.Advance
	for gi := 0; gi < len(basePlan.Advances) && rp.walk.Covered().Len() < mutated.G.N(); {
		slot, ok := rp.classifySlot(mutated.K(), m, basePlan.Advances[gi:])
		if !ok {
			break
		}
		kept = append(kept, slot...)
		rp.walk.End()
		gi += len(slot)
	}
	return kept
}

// classifySlot remaps the advance group that opens advs (every advance at
// advs[0].T) through m and fires it on the walker. On success it returns
// the rebuilt advances, leaving the slot open for the caller to commit;
// on any model violation, or an advance that covers nothing new on the
// mutated graph, it reports ok=false and the prefix ends before this slot.
func (rp *Replanner) classifySlot(k int, m Mapping, advs []core.Advance) ([]core.Advance, bool) {
	t := advs[0].T
	if rp.walk.Begin(t) != nil {
		return nil, false
	}
	var out []core.Advance
	prevCh := -1
	for _, adv := range advs {
		if adv.T != t {
			break
		}
		if adv.Channel <= prevCh || adv.Channel >= k {
			return nil, false
		}
		prevCh = adv.Channel
		senders := make([]graph.NodeID, 0, len(adv.Senders))
		for _, u := range adv.Senders {
			if u < 0 || u >= len(m.FromBase) {
				return nil, false
			}
			v := m.FromBase[u]
			if v < 0 {
				return nil, false // sender failed
			}
			senders = append(senders, v)
		}
		slices.Sort(senders)
		reach, err := rp.walk.Fire(senders)
		if err != nil || reach.Empty() {
			return nil, false
		}
		covered := reach.AppendMembers(make([]graph.NodeID, 0, reach.Len()))
		out = append(out, core.Advance{T: t, Channel: adv.Channel, Senders: senders, Covered: covered})
	}
	return out, true
}

// preCoveredList snapshots the walker's coverage minus the source as a
// fresh slice — the pre-covered state of the residual search.
func (rp *Replanner) preCoveredList(source graph.NodeID) []graph.NodeID {
	w := rp.walk.Covered()
	out := make([]graph.NodeID, 0, w.Len()-1)
	w.ForEach(func(v int) {
		if v != source {
			out = append(out, v)
		}
	})
	return out
}
