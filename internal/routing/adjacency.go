package routing

import (
	"slices"

	"repro/internal/topology"
)

// Adjacency is a snapshot of every node's healthy-link neighbors in CSR
// form, each list in ascending node ID with parallel links compacted to
// one entry — the deterministic visit order of the path enumerators,
// sorted once per enumeration instead of on every visit. Read-only after
// NewAdjacency, so concurrent searches may share one.
type Adjacency struct {
	off []int32 // node n's neighbors are nbr[off[n]:off[n+1]]
	nbr []topology.NodeID
}

// NewAdjacency snapshots g's healthy links.
func NewAdjacency(g *topology.Graph) Adjacency {
	n := g.NumNodes()
	a := Adjacency{off: make([]int32, n+1), nbr: make([]topology.NodeID, 0, 2*g.NumLinks())}
	for u := 0; u < n; u++ {
		lo := len(a.nbr)
		a.nbr = g.Neighbors(topology.NodeID(u), a.nbr)
		slices.Sort(a.nbr[lo:])
		a.nbr = a.nbr[:lo+len(slices.Compact(a.nbr[lo:]))]
		a.off[u+1] = int32(len(a.nbr))
	}
	return a
}

// Of returns u's neighbors; do not modify the slice.
func (a Adjacency) Of(u topology.NodeID) []topology.NodeID {
	return a.nbr[a.off[u]:a.off[u+1]]
}
