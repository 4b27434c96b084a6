// Package protocol simulates the proactive (pre-broadcast) phase of the
// system as an actual message-passing protocol, rather than as centralized
// computation:
//
//  1. Neighbor discovery — each node beacons; every neighbor records its
//     position and wake seed ("when a node receives the beacon message
//     from its neighbor, it will respond with its own status information,
//     including the location, last wake-up time, metric values",
//     Section III).
//  2. Distributed E construction — Algorithm 2 run by announcements: a
//     node whose E_i settles announces the value once; neighbors that see
//     the announcer in their quadrant i relax their own entry. Theorem 3's
//     claim is that this converges with each node announcing each entry at
//     most once per pass — the Exchanges counter makes the claim testable
//     message by message.
//
// The protocol keeps the paper's two passes literally — edge nodes first,
// interior local minima second — while the centralized emodel.New seeds
// every empty-quadrant node in one pass (a level BFS for hop weights, a
// Dijkstra for CWT weights). The tests assert the two tables are
// bit-identical, so the protocol is the independent check on that
// shortcut; the package also demonstrates (and counts) the communication
// the paper argues is O(1) per node.
package protocol

import (
	"fmt"
	"math"
	"sort"

	"mlbs/internal/emodel"
	"mlbs/internal/geom"
	"mlbs/internal/graph"
)

// NeighborRecord is what a node learns about a neighbor during discovery.
type NeighborRecord struct {
	ID       graph.NodeID
	Pos      geom.Point
	WakeSeed uint64
	LastWake int
}

// DiscoveryResult reports the neighbor-discovery round.
type DiscoveryResult struct {
	// Tables[u] lists u's neighbor records sorted by ID.
	Tables [][]NeighborRecord
	// Beacons is the number of beacon transmissions (one per node).
	Beacons int
	// Replies is the number of unicast status replies (one per directed
	// edge: each neighbor answers each beacon).
	Replies int
}

// Discover simulates one beaconing round over the topology: every node
// broadcasts a beacon; every neighbor replies with its status. Wake seeds
// are synthesized per node from masterSeed, standing in for the preset
// seeds of Section III.
func Discover(g *graph.Graph, masterSeed uint64) *DiscoveryResult {
	n := g.N()
	res := &DiscoveryResult{Tables: make([][]NeighborRecord, n)}
	seedOf := func(u graph.NodeID) uint64 {
		s := masterSeed ^ (uint64(u)+1)*0x9e3779b97f4a7c15
		return s
	}
	for u := 0; u < n; u++ {
		res.Beacons++ // u beacons once
		for _, v := range g.Adj(u) {
			res.Replies++ // v replies to u's beacon
			res.Tables[u] = append(res.Tables[u], NeighborRecord{
				ID:       v,
				Pos:      g.Pos(v),
				WakeSeed: seedOf(v),
				LastWake: 0,
			})
		}
		sort.Slice(res.Tables[u], func(i, j int) bool {
			return res.Tables[u][i].ID < res.Tables[u][j].ID
		})
	}
	return res
}

// ETableResult is the outcome of the distributed E construction.
type ETableResult struct {
	Table *emodel.Table
	// Exchanges is the number of E announcements sent: each is one
	// broadcast by a node whose entry for some quadrant just settled.
	Exchanges int
	// PerNode[u] counts u's announcements; Theorem 3 bounds it by 4 per
	// pass (8 over the two passes), and in practice each entry settles in
	// exactly one pass, giving exactly 4.
	PerNode []int
	// Rounds is the number of synchronous announcement rounds until
	// quiescence.
	Rounds int
}

// message is one E announcement: "my E value for quadrant q is v".
type message struct {
	from graph.NodeID
	q    geom.Quadrant
	v    float64
}

// BuildE runs Algorithm 2 as a message-passing protocol with the given
// hop weight (use emodel.HopWeight for the synchronous system or
// emodel.CWTWeight for duty-cycle instances). Pass structure follows the
// paper: pass 1 seeds network-edge nodes with empty quadrants, pass 2
// seeds the interior local minima that remained ∞.
func BuildE(g *graph.Graph, w emodel.Weight) (*ETableResult, error) {
	if !g.DistinctPositions() {
		return nil, fmt.Errorf("protocol: E construction needs distinct positions")
	}
	n := g.N()
	res := &ETableResult{
		Table: &emodel.Table{
			E:       make([][4]float64, n),
			Updates: make([]int, n),
		},
		PerNode: make([]int, n),
	}
	edge := emodel.EdgeNodes(g)
	tab := res.Table
	for u := 0; u < n; u++ {
		for qi := range geom.Quadrants {
			tab.E[u][qi] = emodel.Inf
		}
	}
	emptyQ := func(u graph.NodeID, q geom.Quadrant) bool {
		return len(g.NeighborsInQuadrant(u, q)) == 0
	}

	settle := func(u graph.NodeID, q geom.Quadrant, v float64, outbox *[]message) {
		qi := q.Index()
		tab.E[u][qi] = v
		tab.Updates[u]++
		*outbox = append(*outbox, message{from: u, q: q, v: v})
	}

	runPass := func(maySeed func(u graph.NodeID) bool) {
		var outbox []message
		for qi, q := range geom.Quadrants {
			for u := 0; u < n; u++ {
				if math.IsInf(tab.E[u][qi], 1) && emptyQ(u, q) && maySeed(u) {
					settle(u, q, 0, &outbox)
				}
			}
		}
		// Synchronous rounds: deliver all announcements, collect the
		// tentative updates, settle the per-quadrant minima (a node's
		// entry is safe to settle once no pending smaller offer can exist;
		// with uniform weights this is exactly BFS — we emulate Dijkstra's
		// settle-min rule to stay exact for CWT weights too).
		pending := make([]map[graph.NodeID]float64, 4)
		for qi := range pending {
			pending[qi] = make(map[graph.NodeID]float64)
		}
		for len(outbox) > 0 {
			res.Rounds++
			for _, m := range outbox {
				res.Exchanges++
				res.PerNode[m.from]++
				// Every neighbor u that sees m.from in its quadrant m.q
				// relaxes its tentative entry.
				for _, u := range g.Adj(m.from) {
					if geom.QuadrantOf(g.Pos(u), g.Pos(m.from)) != m.q {
						continue
					}
					qi := m.q.Index()
					if !math.IsInf(tab.E[u][qi], 1) {
						continue // settled in an earlier pass/round
					}
					offer := w(u, m.from) + m.v
					if cur, ok := pending[qi][u]; !ok || offer < cur {
						pending[qi][u] = offer
					}
				}
			}
			outbox = outbox[:0]
			// Settle the global minimum tentative entry per quadrant (and
			// any ties): no future offer can undercut it, because offers
			// only grow along paths. Settling only minima keeps the
			// protocol exact under real-valued CWT weights.
			for qi, q := range geom.Quadrants {
				min := math.Inf(1)
				for _, v := range pending[qi] {
					if v < min {
						min = v
					}
				}
				if math.IsInf(min, 1) {
					continue
				}
				for u, v := range pending[qi] {
					if v <= min+1e-12 {
						settle(u, q, v, &outbox)
						delete(pending[qi], u)
					}
				}
			}
		}
	}

	runPass(func(u graph.NodeID) bool { return edge[u] })
	runPass(func(graph.NodeID) bool { return true })
	return res, nil
}
