package aggregate

import (
	"fmt"

	"mlbs/internal/graph"
)

// SPT builds the shortest-path routing tree toward the sink: every node's
// parent is its lowest-ID neighbor one BFS layer closer to the sink.
// depth[u] is u's BFS hop count to the sink, hence its depth in the tree.
// Deterministic; errors when the graph is not connected to the sink.
func SPT(g *graph.Graph, sink graph.NodeID) (parent []graph.NodeID, depth []int, err error) {
	dist := g.BFS(sink)
	n := g.N()
	parent = make([]graph.NodeID, n)
	parent[sink] = -1
	for u := 0; u < n; u++ {
		if graph.NodeID(u) == sink {
			continue
		}
		if dist[u] < 0 {
			return nil, nil, fmt.Errorf("aggregate: node %d unreachable from sink %d", u, sink)
		}
		parent[u] = -1
		for _, v := range g.Adj(graph.NodeID(u)) { // Adj is sorted ascending
			if dist[v] == dist[u]-1 {
				parent[u] = v
				break
			}
		}
		if parent[u] < 0 {
			return nil, nil, fmt.Errorf("aggregate: node %d has no neighbor closer to sink", u)
		}
	}
	return parent, dist, nil
}

// BoundedSPT builds a degree-bounded shortest-path tree: parents are still
// one BFS layer closer to the sink, but each parent accepts at most
// maxChildren children while an unsaturated closer neighbor exists —
// spreading subtrees across relays so no single parent serializes
// maxDegree receptions. When every closer neighbor is saturated the least
// loaded one (lowest ID on ties) is used anyway, so the tree always
// spans; depth is as in SPT. maxChildren < 1 degenerates to SPT.
func BoundedSPT(g *graph.Graph, sink graph.NodeID, maxChildren int) (parent []graph.NodeID, depth []int, err error) {
	if maxChildren < 1 {
		return SPT(g, sink)
	}
	dist := g.BFS(sink)
	n := g.N()
	parent = make([]graph.NodeID, n)
	parent[sink] = -1
	load := make([]int, n)
	// Assign in (layer, ID) order so load counts are deterministic.
	order := make([]graph.NodeID, 0, n)
	maxd := 0
	for u := 0; u < n; u++ {
		if dist[u] > maxd {
			maxd = dist[u]
		}
	}
	for d := 1; d <= maxd; d++ {
		for u := 0; u < n; u++ {
			if dist[u] == d {
				order = append(order, graph.NodeID(u))
			}
		}
	}
	assigned := 1
	for _, u := range order {
		best := graph.NodeID(-1)
		for _, v := range g.Adj(u) {
			if dist[v] != dist[u]-1 {
				continue
			}
			if best < 0 || load[v] < load[best] {
				best = v
			}
			if load[v] < maxChildren {
				// First unsaturated closer neighbor in ID order wins.
				best = v
				break
			}
		}
		if best < 0 {
			return nil, nil, fmt.Errorf("aggregate: node %d has no neighbor closer to sink", u)
		}
		parent[u] = best
		load[best]++
		assigned++
	}
	if assigned != n {
		return nil, nil, fmt.Errorf("aggregate: sink %d reaches %d of %d nodes", sink, assigned, n)
	}
	return parent, dist, nil
}
