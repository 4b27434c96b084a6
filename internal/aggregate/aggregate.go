// Package aggregate schedules conflict-aware minimum-latency convergecast,
// the dual of the paper's broadcast problem: every node holds one reading,
// readings flow UP a routing tree toward the sink, merging at each parent,
// and the schedule ends when the sink holds all of them. Where broadcast
// packs senders into coverage-maximizing conflict-free classes,
// aggregation packs them into receiver-safe bundles: on one (slot,
// channel) every sender's parent decodes exactly that sender under the
// instance's interference oracle (graph or SINR, via Oracle.Outcome, so
// capture can rescue a bundle the protocol model rejects). Wake semantics
// invert too: the duty cycle gates the receiver, so a child fires only in
// a slot where its parent listens. Instance.Source is read as the sink,
// Channels as the bundle width K, Wake as the listen schedule.
//
// SlotWalker is the one copy of the per-slot rules; Schedule.Validate
// (strict, whole bundles) and the greedy Scheduler (one sender at a time)
// are policies over it, and sim.ReplayAggregate is the independent
// referee.
package aggregate

import (
	"fmt"
	"slices"

	"mlbs/internal/bitset"
	"mlbs/internal/core"
	"mlbs/internal/graph"
	"mlbs/internal/interference"
)

// Advance is one (slot, channel) transmission bundle: Senders fire
// concurrently on Channel at slot T, each delivering its merged subtree
// payload to its tree parent. Unlike the broadcast Advance there is no
// Covered list — each sender has exactly one intended receiver, Parent[u],
// and receiver-safety (not coverage) is the admissibility criterion.
type Advance struct {
	T       int
	Channel int `json:"Channel,omitempty"`
	Senders []graph.NodeID
}

// Schedule is a complete convergecast plan: a routing tree oriented at the
// sink plus the per-slot sender bundles. Every non-sink node transmits
// exactly once; when it does, its whole subtree has already merged into
// its payload, so the final transmission into the sink completes the
// aggregate.
type Schedule struct {
	Sink  graph.NodeID
	Start int
	// Parent[u] is u's tree parent (the receiver of u's one transmission);
	// Parent[Sink] = -1.
	Parent   []graph.NodeID
	Advances []Advance
}

// End returns the slot of the last transmission, Start−1 when empty.
func (s *Schedule) End() int {
	if len(s.Advances) == 0 {
		return s.Start - 1
	}
	return s.Advances[len(s.Advances)-1].T
}

// Latency returns the elapsed slots End−Start+1.
func (s *Schedule) Latency() int { return s.End() - s.Start + 1 }

// Result is the outcome of one aggregation scheduling run.
type Result struct {
	// Scheduler names the tree/assignment strategy ("agg-spt" or
	// "agg-bounded").
	Scheduler string
	Schedule  *Schedule
	// LatencySlots duplicates Schedule.Latency() for wire convenience.
	LatencySlots int
}

// Validate checks s against in and returns nil iff the schedule is a
// correct convergecast plan: the parent array is a spanning tree oriented
// at the sink over real edges, each slot carries at most K advances on
// strictly ascending channels in [0,K), every advance has senders and is
// a legal firing under SlotWalker's rules, and every non-sink node
// transmits. The recorded channel is checked before the walker's rules.
func (s *Schedule) Validate(in core.Instance) error {
	if err := in.Validate(); err != nil {
		return err
	}
	if len(in.PreCovered) != 0 {
		return fmt.Errorf("aggregate: PreCovered is a broadcast-only input")
	}
	if s.Sink != in.Source {
		return fmt.Errorf("aggregate: schedule sink %d, instance sink %d", s.Sink, in.Source)
	}
	if s.Start != in.Start {
		return fmt.Errorf("aggregate: schedule starts at %d, instance at %d", s.Start, in.Start)
	}
	if err := checkTree(in.G, s.Sink, s.Parent); err != nil {
		return err
	}

	k := in.K()
	var sw SlotWalker
	sw.Reset(in, s.Parent)
	advs := s.Advances
	for gi := 0; gi < len(advs); {
		t := advs[gi].T
		if err := sw.Begin(t); err != nil {
			return err
		}
		end := gi
		for end < len(advs) && advs[end].T == t {
			end++
		}
		if end-gi > k {
			return fmt.Errorf("aggregate: %d advances in slot %d exceed %d channels", end-gi, t, k)
		}
		prevCh := -1
		for _, adv := range advs[gi:end] {
			if adv.Channel <= prevCh {
				return fmt.Errorf("aggregate: t=%d channel %d not above %d", t, adv.Channel, prevCh)
			}
			if adv.Channel >= k {
				return fmt.Errorf("aggregate: t=%d channel %d outside [0,%d)", t, adv.Channel, k)
			}
			prevCh = adv.Channel
			if len(adv.Senders) == 0 {
				return fmt.Errorf("aggregate: empty sender set at t=%d ch=%d", t, adv.Channel)
			}
			if err := sw.Fire(adv.Channel, adv.Senders); err != nil {
				return err
			}
		}
		sw.End()
		gi = end
	}
	if sent, n := sw.Sent(), in.G.N(); sent != n-1 {
		return fmt.Errorf("aggregate: %d of %d non-sink nodes transmitted", sent, n-1)
	}
	return nil
}

// SlotWalker applies convergecast's per-slot rules one slot at a time:
// slots strictly increase; a sender is a node other than the sink that
// has not transmitted and whose children all have, in earlier slots; its
// parent is awake and receives no other child this slot on any channel
// (one radio); and in each bundle every sender's parent decodes exactly
// that sender under the instance's interference oracle.
//
// A walk is Reset, then per slot Begin, any number of Fire or Join calls,
// and End to commit the slot's senders; a slot given up without End
// commits nothing. A warm walker allocates nothing, rejections included:
// the error a call returns is owned by the walker and holds until its
// next failing call. A SlotWalker is not safe for concurrent use.
type SlotWalker struct {
	in      core.Instance
	ib      interference.Binder
	oracle  interference.Oracle
	parent  []graph.NodeID
	pending []int          // children not yet committed, per node
	done    bitset.Set     // senders of the committed slots
	slotRx  bitset.Set     // parents receiving in the open slot
	fired   []graph.NodeID // senders fired in the open slot
	ready   []graph.NodeID // nodes that may send once their parent listens
	probe   []graph.NodeID // admits' scratch bundle
	prev, t int            // last committed slot; open slot
	err     core.RuleError
}

// Reset starts a walk of in over parent, a spanning tree oriented at
// in.Source, and returns the ready set: the nodes without children,
// ascending. The slice aliases the walker, which End keeps current; the
// caller may reorder it.
func (sw *SlotWalker) Reset(in core.Instance, parent []graph.NodeID) []graph.NodeID {
	n := in.G.N()
	if len(sw.done) != bitset.WordsFor(n) {
		sw.done, sw.slotRx = bitset.New(n), bitset.New(n)
	}
	sw.pending = slices.Grow(sw.pending[:0], n)[:n]
	clear(sw.pending)
	for u, p := range parent {
		if u != in.Source {
			sw.pending[p]++
		}
	}
	sw.ready = sw.ready[:0]
	for u, c := range sw.pending {
		if c == 0 && u != in.Source {
			sw.ready = append(sw.ready, u)
		}
	}
	sw.done.Clear()
	sw.in, sw.parent, sw.oracle = in, parent, in.Oracle(&sw.ib)
	sw.prev = in.Start - 1
	return sw.ready
}

// Sent returns the number of transmissions the committed slots carry.
func (sw *SlotWalker) Sent() int { return sw.done.Len() }

// Begin opens slot t, which must come after the last committed slot.
//
//mlbs:hotpath -- runs every scheduled and validated slot
func (sw *SlotWalker) Begin(t int) error {
	if t <= sw.prev {
		return sw.err.Set(nil, "aggregate: advance at t=%d not after t=%d", t, sw.prev)
	}
	sw.t, sw.fired = t, sw.fired[:0]
	sw.slotRx.Clear()
	return nil
}

// MaySend reports whether u may still send in the open slot.
func (sw *SlotWalker) MaySend(u graph.NodeID) bool { return sw.sender(u) == nil }

// sender applies the sender rules to u in the open slot.
//
//mlbs:hotpath -- every candidate and every fired sender
func (sw *SlotWalker) sender(u graph.NodeID) error {
	switch {
	case u < 0 || u >= len(sw.pending):
		return sw.err.Set(nil, "aggregate: sender %d out of range at t=%d", u, sw.t)
	case u == sw.in.Source:
		return sw.err.Set(nil, "aggregate: sink %d transmits at t=%d", u, sw.t)
	case sw.done.Has(u):
		return sw.err.Set(nil, "aggregate: node %d transmits twice (again at t=%d)", u, sw.t)
	case sw.pending[u] != 0:
		return sw.err.Set(nil, "aggregate: node %d transmits at t=%d with %d children still pending", u, sw.t, sw.pending[u])
	case !sw.in.Wake.Awake(sw.parent[u], sw.t):
		return sw.err.Set(nil, "aggregate: parent %d of sender %d asleep at t=%d", sw.parent[u], u, sw.t)
	case sw.slotRx.Has(sw.parent[u]):
		return sw.err.Set(nil, "aggregate: parent %d receives twice in slot %d (one radio)", sw.parent[u], sw.t)
	}
	return nil
}

// admits reports whether bundle ∪ {u} is receiver-safe, committing
// nothing. Bundles are kept ascending because SINR's strongest-sender
// tie-break reads sender order; capture can admit sets the protocol model
// rejects and vice versa, so every member is re-checked.
//
//mlbs:hotpath -- the greedy probes every eligible node per channel
func (sw *SlotWalker) admits(bundle []graph.NodeID, u graph.NodeID) bool {
	i, _ := slices.BinarySearch(bundle, u)
	sw.probe = slices.Insert(append(sw.probe[:0], bundle...), i, u)
	return sw.undecoded(sw.probe) < 0
}

// Join is Fire for a policy that grows its bundles one sender at a time:
// when u may send and admits(bundle, u), u claims its parent's radio and
// Join returns bundle ∪ {u} in bundle's storage; otherwise it returns
// bundle and false.
//
//mlbs:hotpath -- the greedy scheduler's fire path
func (sw *SlotWalker) Join(bundle []graph.NodeID, u graph.NodeID) ([]graph.NodeID, bool) {
	if sw.sender(u) != nil || !sw.admits(bundle, u) {
		return bundle, false
	}
	sw.slotRx.Add(sw.parent[u])
	sw.fired = append(sw.fired, u)
	return append(bundle[:0], sw.probe...), true
}

// Fire fires senders as one bundle of the open slot; ch only labels the
// error, channel order and range being the policy's. Each sender passes
// the sender rules and claims its parent's radio, and the bundle must be
// receiver-safe.
//
//mlbs:hotpath -- every scheduled and validated bundle
func (sw *SlotWalker) Fire(ch int, senders []graph.NodeID) error {
	for _, u := range senders {
		if err := sw.sender(u); err != nil {
			return err
		}
		sw.slotRx.Add(sw.parent[u])
	}
	if u := sw.undecoded(senders); u >= 0 {
		return sw.err.Set(senders, "aggregate: t=%d ch=%d parent %d does not decode child %d (senders %v)", sw.t, ch, sw.parent[u], u)
	}
	sw.fired = append(sw.fired, senders...)
	return nil
}

// undecoded returns the first sender its parent does not decode under the
// whole bundle, or −1.
//
//mlbs:hotpath -- the receiver-safety check of every probe and bundle
func (sw *SlotWalker) undecoded(senders []graph.NodeID) graph.NodeID {
	for _, u := range senders {
		if got, ok := sw.oracle.Outcome(sw.parent[u], senders); !ok || got != u {
			return u
		}
	}
	return -1
}

// End commits the open slot's senders and returns the ready set without
// them and with the parents whose last child they were, aliased as
// Reset's. Same-slot senders never count as committed for each other, so
// precedence is strict.
//
//mlbs:hotpath -- runs every scheduled and validated slot
func (sw *SlotWalker) End() []graph.NodeID {
	for _, u := range sw.fired {
		sw.done.Add(u)
		p := sw.parent[u]
		if sw.pending[p]--; sw.pending[p] == 0 && p != sw.in.Source {
			sw.ready = append(sw.ready, p)
		}
	}
	sw.ready = slices.DeleteFunc(sw.ready, sw.done.Has)
	sw.prev = sw.t
	return sw.ready
}

// checkTree verifies parent is a spanning tree of g oriented at sink:
// right length, Parent[sink] = -1, every other parent a real graph edge,
// and every chain reaches the sink (no cycles, no strays).
func checkTree(g *graph.Graph, sink graph.NodeID, parent []graph.NodeID) error {
	n := g.N()
	if len(parent) != n {
		return fmt.Errorf("aggregate: parent array has %d entries for %d nodes", len(parent), n)
	}
	if parent[sink] != -1 {
		return fmt.Errorf("aggregate: sink %d has parent %d, want -1", sink, parent[sink])
	}
	for u := 0; u < n; u++ {
		if graph.NodeID(u) == sink {
			continue
		}
		p := parent[u]
		if p < 0 || int(p) >= n {
			return fmt.Errorf("aggregate: node %d parent %d out of range", u, p)
		}
		if !g.HasEdge(graph.NodeID(u), p) {
			return fmt.Errorf("aggregate: tree edge %d→%d not in graph", u, p)
		}
	}
	// Rooted-at-sink check: each chain must hit the sink within n hops.
	reach := bitset.New(n)
	reach.Add(int(sink))
	for u := 0; u < n; u++ {
		v, hops := graph.NodeID(u), 0
		for !reach.Has(int(v)) {
			if hops++; hops > n {
				return fmt.Errorf("aggregate: parent chain from node %d never reaches sink", u)
			}
			v = parent[v]
		}
		v = graph.NodeID(u)
		for !reach.Has(int(v)) {
			reach.Add(int(v))
			v = parent[v]
		}
	}
	return nil
}
