package aggregate

import (
	"fmt"
	"math"
	"slices"

	"mlbs/internal/core"
	"mlbs/internal/graph"
)

// Tree selects the routing-tree construction strategy.
type Tree int

const (
	// TreeSPT is the plain shortest-path tree (lowest-ID closer neighbor).
	TreeSPT Tree = iota
	// TreeBounded is the degree-bounded shortest-path tree.
	TreeBounded
)

// DefaultMaxChildren is the child cap of the degree-bounded tree when the
// caller does not override it.
const DefaultMaxChildren = 3

// Scheduler plans convergecast schedules. It is reusable across calls —
// scratch buffers grow to the largest instance seen and are then reused —
// but, like the broadcast engines, NOT safe for concurrent use; each
// service worker owns its own.
type Scheduler struct {
	Tree Tree
	// MaxChildren caps per-parent fan-in for TreeBounded; ≤ 0 selects
	// DefaultMaxChildren.
	MaxChildren int

	walk   SlotWalker
	groups [][]graph.NodeID
}

// Name returns the strategy label recorded in Result.Scheduler.
func (s *Scheduler) Name() string {
	if s.Tree == TreeBounded {
		return "agg-bounded"
	}
	return "agg-spt"
}

// Schedule plans one convergecast round for in (Source read as the sink).
// Bottom-up greedy: at each slot, ready nodes (all children transmitted,
// parent awake to receive) are packed into ≤K receiver-safe channel
// bundles, deepest-first so the longest root-ward chains drain earliest.
// The slot's rules are the SlotWalker's. Deterministic for a fixed
// instance.
func (s *Scheduler) Schedule(in core.Instance) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if len(in.PreCovered) != 0 {
		return nil, fmt.Errorf("aggregate: PreCovered is a broadcast-only input")
	}
	g, sink := in.G, in.Source
	n := g.N()
	var parent []graph.NodeID
	var depth []int
	var err error
	if s.Tree == TreeBounded {
		mc := s.MaxChildren
		if mc <= 0 {
			mc = DefaultMaxChildren
		}
		parent, depth, err = BoundedSPT(g, sink, mc)
	} else {
		parent, depth, err = SPT(g, sink)
	}
	if err != nil {
		return nil, err
	}

	k := in.K()
	for len(s.groups) < k {
		s.groups = append(s.groups, nil)
	}
	sw := &s.walk
	sched := &Schedule{Sink: sink, Start: in.Start, Parent: parent}
	// Each pass plans slot t from the walker's ready set; End commits it.
	for t, ready := in.Start, sw.Reset(in, parent); sw.Sent() < n-1; t, ready = t+1, sw.End() {
		if len(ready) == 0 {
			return nil, fmt.Errorf("aggregate: no ready node with %d transmissions left", n-1-sw.Sent())
		}
		// Deepest first, then lowest ID: drain the critical chains.
		slices.SortFunc(ready, func(a, b graph.NodeID) int {
			if depth[a] != depth[b] {
				return depth[b] - depth[a]
			}
			return a - b
		})
		if err := sw.Begin(t); err != nil {
			return nil, err
		}
		for ch := range s.groups[:k] {
			s.groups[ch] = s.groups[ch][:0]
		}
		for _, u := range ready {
			for ch, joined := 0, false; ch < k && !joined; ch++ {
				s.groups[ch], joined = sw.Join(s.groups[ch], u)
			}
		}
		// A node that may send and decodes alone joins the empty bundle of
		// channel 0, so an empty channel 0 means nothing fired.
		if len(s.groups[0]) == 0 {
			next := math.MaxInt
			for _, u := range ready {
				if sw.MaySend(u) {
					// Its solo decode failed — time-independent (a positive
					// SINR noise floor can strand a link), so retrying later
					// slots would loop forever.
					return nil, fmt.Errorf("aggregate: node %d cannot decode at parent %d under %s",
						u, parent[u], sw.oracle.Name())
				}
				next = min(next, in.Wake.NextAwake(parent[u], t))
			}
			t = next - 1 // no ready node's parent listens before next
			continue
		}
		for ch, senders := range s.groups[:k] {
			if len(senders) > 0 {
				sched.Advances = append(sched.Advances, Advance{T: t, Channel: ch, Senders: slices.Clone(senders)})
			}
		}
	}
	return &Result{Scheduler: s.Name(), Schedule: sched, LatencySlots: sched.Latency()}, nil
}
