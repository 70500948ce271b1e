package elp

import (
	"repro/internal/routing"
	"repro/internal/topology"
)

// ShortestTreePaths runs ShortestAllN's BFS for one source and returns
// its paths with their ports laid end to end (see shortestTreePaths).
func ShortestTreePaths(g *topology.Graph, endpoints []topology.NodeID, src topology.NodeID) ([]routing.Path, []topology.PortID) {
	var sc bfsScratch
	leaf, skip := bfsRoles(g, endpoints)
	paths, ports := shortestTreePaths(g, routing.NewAdjacency(g).Without(skip), leaf, src, endpoints, &sc)
	return paths, append([]topology.PortID(nil), ports...)
}

// HopsValid is ShortestAllN's per-hop check.
var HopsValid = hopsValid
