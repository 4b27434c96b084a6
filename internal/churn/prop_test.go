package churn

import (
	"slices"
	"strings"
	"testing"

	"mlbs/internal/core"
	"mlbs/internal/rng"
	"mlbs/internal/sim"
)

// TestReplanProperty is the core invariant of the churn engine, pinned
// independently of any golden file: for random instances and random event
// sequences, every repaired schedule must (a) pass Instance.Validate,
// (b) replay collision-free to completion, and (c) cover exactly the live
// node set of the mutated instance. The delta evolves the instance step by
// step, so repairs compound: each repaired plan becomes the next base.
func TestReplanProperty(t *testing.T) {
	cases := []struct {
		name string
		mk   func(t *testing.T, seed uint64) core.Instance
	}{
		{"sync", func(t *testing.T, seed uint64) core.Instance { return paperSync(t, 50+int(seed%3)*15, seed) }},
		{"duty", func(t *testing.T, seed uint64) core.Instance { return paperDuty(t, 40+int(seed%2)*20, seed, 4) }},
	}
	trials := 6
	eventsPer := 8
	if testing.Short() {
		trials, eventsPer = 2, 4
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rp := NewReplanner(ReplanConfig{})
			replayer := sim.NewReplayer()
			for trial := 0; trial < trials; trial++ {
				seed := uint64(trial)*7 + 1
				in := tc.mk(t, seed)
				plan := basePlanFor(t, in)
				sched := plan.Schedule
				r := rng.New(seed ^ 0xC0FFEE)
				applied := 0
				for step := 0; applied < eventsPer && step < eventsPer*maxEventTries; step++ {
					ev := randomEvent(r, in)
					rr, err := rp.Replan(in, sched, Delta{Events: []Event{ev}})
					if err != nil {
						continue // disconnecting / source-killing event: redraw
					}
					applied++
					// (a) model validity.
					if err := rr.Result.Schedule.Validate(rr.Instance); err != nil {
						t.Fatalf("trial %d step %d (%s, %+v): invalid repaired schedule: %v",
							trial, step, rr.Strategy, ev, err)
					}
					// (b) collision-free replay + (c) exact live-node coverage.
					rep, err := replayer.Replay(rr.Instance, rr.Result.Schedule)
					if err != nil {
						t.Fatalf("trial %d step %d: replay error: %v", trial, step, err)
					}
					if !rep.Completed {
						t.Fatalf("trial %d step %d (%s): replay incomplete or collided", trial, step, rr.Strategy)
					}
					// (c) independently of the replayer: the schedule's own
					// coverage — source ∪ pre-covered ∪ advance coverage —
					// must be exactly the live node set, each node once.
					n := rr.Instance.G.N()
					seen := make([]bool, n)
					seen[rr.Instance.Source] = true
					for _, u := range rr.Instance.PreCovered {
						seen[u] = true
					}
					for _, adv := range rr.Result.Schedule.Advances {
						for _, u := range adv.Covered {
							if u < 0 || u >= n || seen[u] {
								t.Fatalf("trial %d step %d: node %d covered twice or out of range", trial, step, u)
							}
							seen[u] = true
						}
					}
					for u, ok := range seen {
						if !ok {
							t.Fatalf("trial %d step %d: live node %d never covered", trial, step, u)
						}
					}
					in, sched = rr.Instance, rr.Result.Schedule
				}
				if applied == 0 {
					t.Fatalf("trial %d: no applicable events drawn", trial)
				}
			}
		})
	}
}

// randomEvent draws one arbitrary event against the current instance —
// unlike the trace generator it happily proposes invalid events; the
// property test exercises Replan's error paths with them.
func randomEvent(r *rng.Source, in core.Instance) Event {
	n := in.G.N()
	switch r.Intn(4) {
	case 0:
		return Event{Kind: NodeFail, Node: r.Intn(n)}
	case 1:
		p := in.G.Pos(r.Intn(n))
		return Event{Kind: NodeJoin, X: p.X + r.InRange(-3, 3), Y: p.Y + r.InRange(-3, 3)}
	case 2:
		// Mild radius wobble: ±10%.
		return Event{Kind: RadiusChange, Radius: in.G.Radius() * r.InRange(0.9, 1.1)}
	default:
		return Event{Kind: PositionJitter, Node: r.Intn(n), X: r.NormFloat64(), Y: r.NormFloat64()}
	}
}

// TestClassifyKeepsOnlyValidPrefixes pins what the prefix strategy relies
// on instead of re-validating: every prefix classify keeps — from base
// plans tampered with at random (shifted, swapped or duplicated slots,
// added, dropped or out-of-range senders, bad channels) and mutated by
// random deltas — passes Schedule.Validate on the mutated instance, except
// for completeness when the walk stopped short; and when the walk covered
// every node, the prefix passes outright.
func TestClassifyKeepsOnlyValidPrefixes(t *testing.T) {
	bases := []core.Instance{paperSync(t, 60, 1), paperSync(t, 90, 2), paperDuty(t, 60, 3, 4), channelizedBase(t, 60, 3)}
	trials := 60
	if testing.Short() {
		trials = 15
	}
	rp := NewReplanner(ReplanConfig{})
	full := 0
	for bi, in := range bases {
		plan := basePlanFor(t, in).Schedule
		r := rng.New(uint64(bi) + 41)
		for trial := 0; trial < trials; trial++ {
			sched := tamperPlan(r, plan, in.G.N())
			var d Delta
			if trial%3 != 0 {
				d.Events = []Event{randomEvent(r, in)}
			}
			mutated, m, err := Apply(in, d)
			if err != nil {
				continue
			}
			kept := rp.classify(mutated, sched, m)
			prefix := &core.Schedule{Source: mutated.Source, Start: mutated.Start, Advances: kept}
			err = prefix.Validate(mutated)
			if rp.walk.Covered().Len() == mutated.G.N() {
				full++
				if err != nil {
					t.Fatalf("base %d trial %d: complete kept prefix fails Validate: %v", bi, trial, err)
				}
				continue
			}
			if err == nil || !strings.HasPrefix(err.Error(), "broadcast incomplete") {
				t.Fatalf("base %d trial %d: kept prefix of %d advances breaks a slot rule: %v", bi, trial, len(kept), err)
			}
		}
	}
	if full == 0 {
		t.Fatal("no trial kept a complete prefix; the prefix strategy went untested")
	}
}

// tamperPlan returns a deep copy of plan with one random defect.
func tamperPlan(r *rng.Source, plan *core.Schedule, n int) *core.Schedule {
	out := &core.Schedule{Source: plan.Source, Start: plan.Start}
	for _, a := range plan.Advances {
		a.Senders = slices.Clone(a.Senders)
		a.Covered = slices.Clone(a.Covered)
		out.Advances = append(out.Advances, a)
	}
	advs := out.Advances
	i := r.Intn(len(advs))
	switch r.Intn(8) {
	case 0: // untouched
	case 1: // move the rest of the plan one slot earlier
		for j := i; j < len(advs); j++ {
			advs[j].T--
		}
	case 2: // swap two slots' times
		j := r.Intn(len(advs))
		advs[i].T, advs[j].T = advs[j].T, advs[i].T
	case 3: // fire an advance twice
		out.Advances = slices.Insert(advs, i, advs[i])
	case 4: // an extra sender, possibly uncovered or conflicting
		advs[i].Senders = append(advs[i].Senders, r.Intn(n))
	case 5: // drop a sender
		advs[i].Senders = advs[i].Senders[:len(advs[i].Senders)-1]
	case 6: // a sender outside the node range
		advs[i].Senders = append(advs[i].Senders, n+r.Intn(3), -1)
	case 7: // a channel the instance may not have
		advs[i].Channel = r.Intn(4)
	}
	return out
}
