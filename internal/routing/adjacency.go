package routing

import (
	"slices"

	"repro/internal/topology"
)

// Adjacency is a snapshot of every node's healthy-link neighbors in CSR
// form, each list in ascending node ID with parallel links compacted to
// one entry — the deterministic visit order of the path enumerators,
// sorted once per enumeration instead of on every visit. Beside each
// neighbor it keeps the port a hop into that neighbor arrives on, so an
// enumerator emits a path's ports with its nodes. Read-only after
// NewAdjacency, so concurrent searches may share one.
type Adjacency struct {
	off  []int32 // node n's neighbors are nbr[off[n]:off[n+1]]
	nbr  []topology.NodeID
	port []topology.PortID // parallel to nbr: the neighbor's port facing n
}

// adjEnd is one attached port of the node being snapshotted.
type adjEnd struct {
	peer    topology.NodeID
	far     topology.PortID // the port at the link's other end
	healthy bool
}

// NewAdjacency snapshots g's healthy links. A neighbor's port is the one
// Graph.PortToPeer names on it, failed or not: the far end of the
// lowest-numbered port facing it, since a pair's first link holds the
// lowest port on both sides (Graph.Validate).
func NewAdjacency(g *topology.Graph) Adjacency {
	n := g.NumNodes()
	a := Adjacency{
		off:  make([]int32, n+1),
		nbr:  make([]topology.NodeID, 0, 2*g.NumLinks()),
		port: make([]topology.PortID, 0, 2*g.NumLinks()),
	}
	var ends []adjEnd
	for u := 0; u < n; u++ {
		ends = ends[:0]
		for _, pid := range g.Node(topology.NodeID(u)).Ports {
			p := g.Port(pid)
			if p.Link == topology.InvalidLink {
				continue
			}
			ends = append(ends, adjEnd{peer: p.Peer, far: g.FarEnd(pid), healthy: !g.Link(p.Link).Failed})
		}
		// Stable: within one peer the ends stay in ascending port order.
		slices.SortStableFunc(ends, func(x, y adjEnd) int { return int(x.peer) - int(y.peer) })
		for i := 0; i < len(ends); {
			j, healthy := i, false
			for ; j < len(ends) && ends[j].peer == ends[i].peer; j++ {
				healthy = healthy || ends[j].healthy
			}
			if healthy {
				a.nbr = append(a.nbr, ends[i].peer)
				a.port = append(a.port, ends[i].far)
			}
			i = j
		}
		a.off[u+1] = int32(len(a.nbr))
	}
	return a
}

// Of returns u's neighbors; do not modify the slice.
func (a Adjacency) Of(u topology.NodeID) []topology.NodeID {
	return a.nbr[a.off[u]:a.off[u+1]]
}

// PortsOf returns, parallel to Of(u), the port of each neighbor that
// faces u; do not modify the slice.
func (a Adjacency) PortsOf(u topology.NodeID) []topology.PortID {
	return a.port[a.off[u]:a.off[u+1]]
}

// Without returns a copy of the snapshot in which no neighbor list holds
// a node that drop marks, and the marked nodes have no neighbors: a
// search that must never enter them does not scan past them either.
func (a Adjacency) Without(drop []bool) Adjacency {
	out := Adjacency{
		off:  make([]int32, len(a.off)),
		nbr:  make([]topology.NodeID, 0, len(a.nbr)),
		port: make([]topology.PortID, 0, len(a.port)),
	}
	for u := 0; u+1 < len(a.off); u++ {
		if !drop[u] {
			for k := a.off[u]; k < a.off[u+1]; k++ {
				if !drop[a.nbr[k]] {
					out.nbr = append(out.nbr, a.nbr[k])
					out.port = append(out.port, a.port[k])
				}
			}
		}
		out.off[u+1] = int32(len(out.nbr))
	}
	return out
}
