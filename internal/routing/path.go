// Package routing computes forwarding state and paths over topologies.
//
// It provides the two routing disciplines the Tagger paper reasons about:
// shortest-path routing (what BGP/OSPF converge to, valleys allowed after
// failures) and valley-free "up-down" routing for layered Clos/fat-tree
// fabrics. It also provides the failure-reaction machinery (recompute and
// per-entry overrides) used to reproduce the paper's bounce and
// routing-loop scenarios.
package routing

import (
	"strconv"
	"strings"

	"repro/internal/topology"
)

// Path is a node sequence from source to destination, inclusive.
type Path []topology.NodeID

// Hops returns the number of links traversed.
func (p Path) Hops() int {
	if len(p) == 0 {
		return 0
	}
	return len(p) - 1
}

// Src returns the first node, or InvalidNode for an empty path.
func (p Path) Src() topology.NodeID {
	if len(p) == 0 {
		return topology.InvalidNode
	}
	return p[0]
}

// Dst returns the last node, or InvalidNode for an empty path.
func (p Path) Dst() topology.NodeID {
	if len(p) == 0 {
		return topology.InvalidNode
	}
	return p[len(p)-1]
}

// LoopFree reports whether no node repeats. Paths are almost always a
// handful of hops, where the quadratic scan beats building a set; the
// set is kept for pathological lengths.
func (p Path) LoopFree() bool {
	if len(p) <= 24 {
		for i := 1; i < len(p); i++ {
			for j := 0; j < i; j++ {
				if p[i] == p[j] {
					return false
				}
			}
		}
		return true
	}
	seen := make(map[topology.NodeID]bool, len(p))
	for _, n := range p {
		if seen[n] {
			return false
		}
		seen[n] = true
	}
	return true
}

// Valid reports whether every consecutive pair is adjacent in g (failed
// links count as valid adjacency: a path computed before a failure is
// still a well-formed path).
func (p Path) Valid(g *topology.Graph) bool {
	for i := 1; i < len(p); i++ {
		if g.LinkBetween(p[i-1], p[i]) == nil {
			return false
		}
	}
	return true
}

// Bounces counts the down→up turns at intermediate nodes of a layered
// path: positions where the path was descending (or flat) in layer and
// then ascends. This is the paper's notion of a "bounce" (§4.2). Unlayered
// nodes (layer < 0) make the count meaningless; callers must only use this
// on layered topologies.
func (p Path) Bounces(g *topology.Graph) int {
	bounces := 0
	dirDown := false
	for i := 1; i < len(p); i++ {
		from, to := g.Node(p[i-1]).Layer, g.Node(p[i]).Layer
		switch {
		case to > from: // going up
			if dirDown {
				bounces++
			}
			dirDown = false
		case to < from: // going down
			dirDown = true
		}
	}
	return bounces
}

// ValleyFree reports whether the path never goes up again after going
// down, i.e. has zero bounces.
func (p Path) ValleyFree(g *topology.Graph) bool { return p.Bounces(g) == 0 }

// Equal reports whether two paths visit the same node sequence.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Key returns the canonical string form: decimal node IDs joined by
// commas. Its lexicographic order is a contract — UpDownPaths returns its
// paths in Key order — so it stays even though dedup no longer uses it
// (see PathIndex). Node IDs are appended with strconv into a stack
// buffer, so the only allocation is the returned string itself.
func (p Path) Key() string {
	var a [96]byte
	buf := a[:0]
	for i, n := range p {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(n), 10)
	}
	return string(buf)
}

// String renders the path with node names, e.g. "T3>L4>S2>L1".
func (p Path) String(g *topology.Graph) string {
	var b strings.Builder
	for i, n := range p {
		if i > 0 {
			b.WriteByte('>')
		}
		b.WriteString(g.Node(n).Name)
	}
	return b.String()
}
