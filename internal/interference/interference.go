// Package interference centralizes the interference model behind one
// oracle interface. The paper's conflict predicate — two concurrent
// relays sharing an uncovered neighbor collide there (Eq. 1 constraint 3)
// — used to be re-derived inline by the search's move generation, by
// Schedule.Validate, by the sim replayer's per-slot physics, by
// reliability repair's class packing and by churn replan classification;
// any one copy could silently drift from the others. Every one of those
// sites now consults an Oracle instead.
//
// Two backends exist:
//
//   - GraphOracle — the paper's protocol/UDG model, bit-identical to the
//     historic inline logic (same predicate, same iteration order).
//   - SINROracle — the physical model of Halldórsson & Mitra ("Towards
//     Tight Bounds for Local Broadcasting"): a receiver decodes the
//     strongest in-range sender iff its received power clears β against
//     ambient noise plus the summed interference of every other
//     concurrent same-channel sender, wherever in the plane that sender
//     sits. Graph adjacency still gates *reach* (who can ever deliver the
//     message); SINR gates *interference* — which is exactly what makes a
//     graph-legal sender set SINR-illegal and vice versa (capture).
//
// SINR conflict-freedom is neither pairwise-decomposable nor hereditary:
// adding a sender can rescue a receiver (capture) or doom one
// (interference). Callers that enumerate over the pairwise Conflict
// relation must therefore re-check emitted sets with ConflictFree and
// treat the enumeration as heuristic (Oracle.Pairwise reports which
// regime applies).
package interference

import (
	"fmt"
	"math"

	"mlbs/internal/bitset"
	"mlbs/internal/graph"
)

// Oracle is the interference model consulted by every conflict
// computation in the system. w is always the coverage *before* the slot
// under consideration; senders fire concurrently on one channel.
//
// An Oracle bound by a Binder holds per-call scratch state and is NOT
// safe for concurrent use — each engine, replayer or validator owns its
// own Binder, mirroring the Scratch/Engine discipline.
type Oracle interface {
	// Name identifies the backend: "graph" or "sinr".
	Name() string
	// Pairwise reports whether ConflictFree decomposes into pairwise
	// Conflict checks. True for the protocol model; false for SINR, where
	// enumeration over the pairwise relation is only a heuristic and any
	// emitted set must be re-checked with ConflictFree.
	Pairwise() bool
	// Conflict reports whether candidates u and v may not fire together
	// under coverage w (u never conflicts with itself).
	Conflict(w bitset.Set, u, v graph.NodeID) bool
	// CanJoin reports whether u may join the sender set members without
	// breaking its admissibility under coverage w — the greedy
	// partition's class-join test. An empty members set asks whether u
	// can fire alone.
	CanJoin(w bitset.Set, members []graph.NodeID, u graph.NodeID) bool
	// ConflictFree reports whether the sender set is admissible as one
	// (slot, channel) advance under coverage w: every uncovered neighbor
	// of a sender decodes some sender.
	ConflictFree(w bitset.Set, senders []graph.NodeID) bool
	// SoloDecodes reports the protocol-model receiver rule — exactly one
	// arriving frame decodes, two or more collide — letting the replayer
	// keep its counting fast path. False selects the Outcome-based
	// resolution.
	SoloDecodes() bool
	// Outcome resolves one receiver of one (slot, channel): senders is
	// every concurrent same-channel transmitter whose signal physically
	// reaches v's location (the caller applies per-link loss filtering).
	// It returns the sender v decodes, or ok=false when the frames are
	// undecodable (a collision at an uncovered receiver).
	Outcome(v graph.NodeID, senders []graph.NodeID) (graph.NodeID, bool)
}

// SINRParams selects the physical interference model and carries its
// constants. The zero value is invalid; a nil *SINRParams means the
// protocol-graph model.
type SINRParams struct {
	// Alpha is the path-loss exponent: received power decays as d^-α.
	// α = 0 (legal) makes reception distance-independent.
	Alpha float64 `json:"alpha"`
	// Beta is the SINR decoding threshold (> 0): the decode candidate's
	// power must be ≥ β·(Noise + interference).
	Beta float64 `json:"beta"`
	// Noise is the ambient noise floor (≥ 0). The default 0 guarantees a
	// lone sender always decodes at any distance, so every protocol-model
	// schedule shape stays reachable; a positive floor can strand
	// receivers entirely.
	Noise float64 `json:"noise,omitempty"`
	// Power holds per-node transmit powers (> 0). Empty means uniform
	// power 1 for every node; otherwise its length must equal the node
	// count.
	Power []float64 `json:"power,omitempty"`
}

// Validate rejects non-finite or out-of-range parameters for an n-node
// instance — the guard every decoder and request path routes through, so
// a degenerate oracle (NaN comparisons, negative powers) can never be
// constructed from wire data.
func (p *SINRParams) Validate(n int) error {
	if p == nil {
		return nil
	}
	if math.IsNaN(p.Alpha) || math.IsInf(p.Alpha, 0) || p.Alpha < 0 {
		return fmt.Errorf("interference: path-loss exponent α = %v must be finite and ≥ 0", p.Alpha)
	}
	if math.IsNaN(p.Beta) || math.IsInf(p.Beta, 0) || p.Beta <= 0 {
		return fmt.Errorf("interference: SINR threshold β = %v must be finite and > 0", p.Beta)
	}
	if math.IsNaN(p.Noise) || math.IsInf(p.Noise, 0) || p.Noise < 0 {
		return fmt.Errorf("interference: noise floor %v must be finite and ≥ 0", p.Noise)
	}
	if len(p.Power) != 0 && len(p.Power) != n {
		return fmt.Errorf("interference: %d per-node powers for %d nodes", len(p.Power), n)
	}
	for u, pw := range p.Power {
		if math.IsNaN(pw) || math.IsInf(pw, 0) || pw <= 0 {
			return fmt.Errorf("interference: node %d transmit power %v must be finite and > 0", u, pw)
		}
	}
	return nil
}

// PowerOf returns node u's transmit power (1 when Power is uniform).
//
//mlbs:hotpath -- read once per (sender, receiver) pair in the SINR inner loops
func (p *SINRParams) PowerOf(u graph.NodeID) float64 {
	if len(p.Power) == 0 {
		return 1
	}
	return p.Power[u]
}

// Equal reports parameter-wise equality (nil equals only nil).
func (p *SINRParams) Equal(q *SINRParams) bool {
	if p == nil || q == nil {
		return p == q
	}
	if p.Alpha != q.Alpha || p.Beta != q.Beta || p.Noise != q.Noise || len(p.Power) != len(q.Power) {
		return false
	}
	for i, pw := range p.Power {
		if pw != q.Power[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent deep copy (nil in, nil out).
func (p *SINRParams) Clone() *SINRParams {
	if p == nil {
		return nil
	}
	out := &SINRParams{Alpha: p.Alpha, Beta: p.Beta, Noise: p.Noise}
	if len(p.Power) > 0 {
		out.Power = append([]float64(nil), p.Power...)
	}
	return out
}

// GraphOracle is the paper's protocol-model backend: u and v conflict iff
// they share an uncovered neighbor, a set is admissible iff it is
// pairwise conflict-free, and a receiver decodes iff exactly one frame
// arrives. Bit-identical to the historic inline predicates.
type GraphOracle struct {
	g *graph.Graph
}

// Reset rebinds the oracle to a graph; allocation-free.
func (o *GraphOracle) Reset(g *graph.Graph) { o.g = g }

// Graph returns the graph the oracle is bound to.
func (o *GraphOracle) Graph() *graph.Graph { return o.g }

// Name implements Oracle.
func (o *GraphOracle) Name() string { return "graph" }

// Pairwise implements Oracle: protocol conflicts decompose pairwise.
func (o *GraphOracle) Pairwise() bool { return true }

// SoloDecodes implements Oracle: one frame decodes, more collide.
func (o *GraphOracle) SoloDecodes() bool { return true }

// Conflict implements Oracle: N(u) ∩ N(v) ∩ W̄ ≠ ∅.
//
//mlbs:hotpath -- the inner predicate of greedy labeling and BK compat building
func (o *GraphOracle) Conflict(w bitset.Set, u, v graph.NodeID) bool {
	if u == v {
		return false
	}
	return o.g.Nbr(u).IntersectsDifference(o.g.Nbr(v), w)
}

// CanJoin implements Oracle with exactly the legacy greedy-labeling loop:
// u joins iff it conflicts with no current member.
//
//mlbs:hotpath -- Algorithm 1's class-join test, run once per (candidate, class)
func (o *GraphOracle) CanJoin(w bitset.Set, members []graph.NodeID, u graph.NodeID) bool {
	for _, v := range members {
		if o.Conflict(w, u, v) {
			return false
		}
	}
	return true
}

// ConflictFree implements Oracle: pairwise over the set, identical to the
// historic color.ConflictFree double loop.
//
//mlbs:hotpath -- the per-advance admissibility check of Validate, replan and improve
func (o *GraphOracle) ConflictFree(w bitset.Set, senders []graph.NodeID) bool {
	for i := 0; i < len(senders); i++ {
		for j := i + 1; j < len(senders); j++ {
			if o.Conflict(w, senders[i], senders[j]) {
				return false
			}
		}
	}
	return true
}

// Outcome implements Oracle: v decodes iff exactly one of the senders is
// a graph neighbor. The replayer's SoloDecodes fast path normally answers
// this by frame counting; Outcome exists so the two backends stay
// interchangeable.
func (o *GraphOracle) Outcome(v graph.NodeID, senders []graph.NodeID) (graph.NodeID, bool) {
	got := graph.NodeID(-1)
	nbr := o.g.Nbr(v)
	for _, u := range senders {
		if !nbr.Has(u) {
			continue
		}
		if got >= 0 {
			return -1, false
		}
		got = u
	}
	return got, got >= 0
}

// SINROracle is the physical-model backend. Reach is still the protocol
// graph (only a graph neighbor can deliver the message — the deployment's
// link layer), but admissibility is physical: receiver v decodes its
// strongest graph-neighbor sender u* iff
//
//	pw(u*, v) ≥ β · (Noise + Σ_{x ≠ u*} pw(x, v))
//
// where pw(x, v) = P(x) / d(x, v)^α and the interference sum runs over
// EVERY other concurrent same-channel sender, graph neighbor or not.
// Received powers are computed on the fly from node positions — no n²
// matrix — so binding the oracle costs nothing and warm calls are
// allocation-free.
type SINROracle struct {
	g *graph.Graph
	p *SINRParams

	seen    bitset.Set     // receivers already resolved in this ConflictFree call
	touched []graph.NodeID // members of seen, for O(touched) unwinding
	join    []graph.NodeID // CanJoin's members+u buffer
	pair    [2]graph.NodeID
}

// Reset rebinds the oracle to a graph and parameter set; allocation-free
// once the receiver-dedup bitset has grown to the node count.
func (o *SINROracle) Reset(g *graph.Graph, p *SINRParams) {
	o.g, o.p = g, p
	if n := g.N(); o.seen.Capacity() < n {
		o.seen = bitset.New(n)
	} else {
		o.seen.Clear()
	}
	o.touched = o.touched[:0]
}

// Name implements Oracle.
func (o *SINROracle) Name() string { return "sinr" }

// Pairwise implements Oracle: capture makes SINR admissibility
// non-decomposable, so pairwise enumeration is only heuristic.
func (o *SINROracle) Pairwise() bool { return false }

// SoloDecodes implements Oracle: even a lone frame is subject to the
// noise floor, and concurrent frames may capture — frame counting cannot
// resolve a receiver.
func (o *SINROracle) SoloDecodes() bool { return false }

// pw returns the power of x's transmission as received at v's position:
// P(x)/d^α, +Inf at zero distance (the limit of the law; co-located
// nodes are degenerate but must not divide by zero).
//
//mlbs:hotpath -- evaluated per (sender, receiver) pair in every admissibility check
func (o *SINROracle) pw(x, v graph.NodeID) float64 {
	px, pv := o.g.Pos(x), o.g.Pos(v)
	dx, dy := px.X-pv.X, px.Y-pv.Y
	d2 := dx*dx + dy*dy
	if d2 == 0 {
		return math.Inf(1)
	}
	// d^α = (d²)^(α/2); one Pow, no Sqrt.
	return o.p.PowerOf(x) / math.Pow(d2, 0.5*o.p.Alpha)
}

// Outcome implements Oracle: the decode candidate is v's strongest
// graph-neighbor sender (ties broken toward the earliest in senders,
// which class buffers keep sorted ascending — deterministic), and it
// decodes iff its power clears β against noise plus the interference of
// every other sender. The comparison is multiplicative, so Noise = 0
// never divides by zero and a lone sender always decodes under it.
//
//mlbs:hotpath -- the SINR receiver resolution, run per uncovered receiver per advance
func (o *SINROracle) Outcome(v graph.NodeID, senders []graph.NodeID) (graph.NodeID, bool) {
	best := graph.NodeID(-1)
	bestPw := 0.0
	nbr := o.g.Nbr(v)
	for _, x := range senders {
		if !nbr.Has(x) {
			continue
		}
		if pwx := o.pw(x, v); best < 0 || pwx > bestPw {
			best, bestPw = x, pwx
		}
	}
	if best < 0 {
		return -1, false
	}
	// Second pass so an infinite best power never feeds Inf − Inf = NaN
	// through a running total.
	interf := o.p.Noise
	for _, x := range senders {
		if x != best {
			interf += o.pw(x, v)
		}
	}
	return best, bestPw >= o.p.Beta*interf
}

// ConflictFree implements Oracle: the set is admissible iff every
// uncovered neighbor of a sender decodes some sender — the same receiver
// set N(senders) − w whose coverage Schedule.Validate attributes, so
// admissible advances are exactly the replay-collision-free ones.
//
//mlbs:hotpath -- per-advance admissibility; seen/touched make repeat receivers O(1)
func (o *SINROracle) ConflictFree(w bitset.Set, senders []graph.NodeID) bool {
	ok := true
	for _, u := range senders {
		for _, v := range o.g.Adj(u) {
			if w.Has(v) || o.seen.Has(v) {
				continue
			}
			o.seen.Add(v)
			o.touched = append(o.touched, v)
			if _, dec := o.Outcome(v, senders); !dec {
				ok = false
				break
			}
		}
		if !ok {
			break
		}
	}
	for _, v := range o.touched {
		o.seen.Remove(v)
	}
	o.touched = o.touched[:0]
	return ok
}

// CanJoin implements Oracle set-level: members ∪ {u} must be admissible
// as a whole — joining u may doom an existing member's receiver
// (interference) even when no pairwise conflict exists.
//
//mlbs:hotpath -- greedy class-join test; the join buffer is reused across calls
func (o *SINROracle) CanJoin(w bitset.Set, members []graph.NodeID, u graph.NodeID) bool {
	o.join = append(o.join[:0], members...)
	o.join = append(o.join, u)
	return o.ConflictFree(w, o.join)
}

// Conflict implements Oracle pairwise: {u, v} inadmissible as a pair.
// Under capture this is NOT inherited by supersets — enumerators over
// this relation must re-check emitted sets with ConflictFree.
//
//mlbs:hotpath -- BK compat building on SINR instances
func (o *SINROracle) Conflict(w bitset.Set, u, v graph.NodeID) bool {
	if u == v {
		return false
	}
	o.pair[0], o.pair[1] = u, v
	return !o.ConflictFree(w, o.pair[:])
}

// Binder owns one preallocated oracle of each backend and binds the one
// an instance selects. Because Bind returns a pointer into the Binder,
// a long-lived holder (engine, replayer, improver, replanner) rebinds on
// reset without allocating — the discipline the warm-path alloc pins
// depend on.
type Binder struct {
	graph GraphOracle
	sinr  SINROracle
}

// Bind rebinds the backend selected by p (nil = protocol graph) to g and
// returns it. The returned Oracle aliases the Binder and is valid until
// the next Bind.
func (b *Binder) Bind(g *graph.Graph, p *SINRParams) Oracle {
	if p == nil {
		b.graph.Reset(g)
		return &b.graph
	}
	b.sinr.Reset(g, p)
	return &b.sinr
}
