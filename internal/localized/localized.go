// Package localized implements the paper's stated future work (Section
// VII): "a localized color scheme and its selection to provide a more
// reliable and scalable solution."
//
// Instead of a source-rooted offline schedule, every node decides for
// itself, per slot, from information available within two hops:
//
//   - its own coverage and wake state (Section III's beaconing keeps
//     1-hop neighbor state fresh; neighbors relay it one hop further, so a
//     node knows the coverage and candidacy of its 2-hop neighborhood);
//   - the proactively built E tuple (Algorithm 2 is already distributed —
//     each entry is settled from neighbor announcements exactly once).
//
// The rule: an awake candidate transmits at slot t iff its priority
// (uncovered receivers, then Eq. 10's E score, then node ID) beats every
// awake candidate it conflicts with. Conflicting candidates are exactly
// 2 hops apart (they share an uncovered neighbor), so the decision is
// local, and for any conflicting pair only the higher-priority node sends
// — the transmitting set of every slot is conflict-free by construction,
// without any global coordination. The top-priority candidate always
// transmits, so the broadcast keeps progressing.
package localized

import (
	"fmt"
	"sort"

	"mlbs/internal/bitset"
	"mlbs/internal/core"
	"mlbs/internal/emodel"
	"mlbs/internal/graph"
	"mlbs/internal/sim"
)

// priority orders candidates: more uncovered receivers first, then larger
// E score, then smaller node ID. Returns true when u beats v.
func priority(recvU int, scoreU float64, u graph.NodeID, recvV int, scoreV float64, v graph.NodeID) bool {
	if recvU != recvV {
		return recvU > recvV
	}
	if scoreU != scoreV {
		return scoreU > scoreV
	}
	return u < v
}

// Policy returns the per-slot localized transmission rule for the
// instance. The returned sim.PolicyFunc reads, for each node, only state
// within its 2-hop neighborhood — the coverage bits it inspects are those
// of the deciding node's neighbors and neighbors' neighbors.
func Policy(in core.Instance, tab *emodel.Table) sim.PolicyFunc {
	g := in.G
	return func(w bitset.Set, t int) []graph.NodeID {
		// Per-slot candidate evaluation; each entry is derivable by the
		// node itself from beaconed neighbor state.
		type cand struct {
			recv  int
			score float64
		}
		cands := make(map[graph.NodeID]cand)
		w.ForEach(func(u int) {
			if !in.Wake.Awake(u, t) {
				return
			}
			recv := g.Nbr(u).CountDifference(w)
			if recv == 0 {
				return
			}
			cands[u] = cand{recv: recv, score: tab.Score(u, w)}
		})
		var senders []graph.NodeID
		for u, cu := range cands {
			wins := true
			// Conflicting contenders share an uncovered neighbor with u —
			// all within two hops of u.
			for v, cv := range cands {
				if u == v || !g.Nbr(u).IntersectsDifference(g.Nbr(v), w) {
					continue
				}
				if !priority(cu.recv, cu.score, u, cv.recv, cv.score, v) {
					wins = false
					break
				}
			}
			if wins {
				senders = append(senders, u)
			}
		}
		sort.Ints(senders) // map iteration order must not leak into schedules
		return senders
	}
}

// Run executes the localized scheme against the physics and returns the
// physical report and as-executed schedule. The scheme is collision-free
// by construction; Run verifies that and fails loudly otherwise.
func Run(in core.Instance) (*sim.Report, *core.Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, nil, err
	}
	tab, err := emodel.New(in.G, in.Wake)
	if err != nil {
		return nil, nil, fmt.Errorf("localized: %w", err)
	}
	rep, sched, err := sim.RunPolicy(in, Policy(in, tab), 0)
	if err != nil {
		return nil, nil, err
	}
	if len(rep.Collisions) > 0 {
		return nil, nil, fmt.Errorf("localized: %d collisions — the 2-hop rule is broken", len(rep.Collisions))
	}
	if !rep.Completed {
		return nil, nil, fmt.Errorf("localized: broadcast incomplete within horizon")
	}
	return rep, sched, nil
}

// RunLossy executes the localized scheme over a lossy channel. Because
// every slot's senders are re-derived from the coverage that physically
// happened, lost frames are retransmitted naturally; the scheme completes
// on any loss rate < 1 given enough horizon, at a latency and energy
// premium the report quantifies.
func RunLossy(in core.Instance, loss sim.LossFunc) (*sim.LossyReport, *core.Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, nil, err
	}
	tab, err := emodel.New(in.G, in.Wake)
	if err != nil {
		return nil, nil, fmt.Errorf("localized: %w", err)
	}
	return sim.RunPolicyLossy(in, Policy(in, tab), 0, loss)
}
