package routing

import (
	"slices"

	"repro/internal/topology"
)

// PathList is a sequence of paths laid out back to back in one node
// array: the form an enumerator emits into and a node-map translation
// reads from, with no per-path allocation on either side. The zero value
// is an empty list.
type PathList struct {
	Nodes []topology.NodeID
	Ends  []int // path i is Nodes[Ends[i-1]:Ends[i]], with Ends[-1] = 0
}

// Len returns the number of paths.
func (l *PathList) Len() int { return len(l.Ends) }

// Add appends a copy of p. Both arrays at least double when they fill, so
// a list of any size costs O(log size) allocations.
func (l *PathList) Add(p Path) {
	if cap(l.Nodes)-len(l.Nodes) < len(p) {
		l.Nodes = slices.Grow(l.Nodes, max(cap(l.Nodes), len(p)))
	}
	l.Nodes = append(l.Nodes, p...)
	if len(l.Ends) == cap(l.Ends) {
		l.Ends = slices.Grow(l.Ends, max(cap(l.Ends), 1))
	}
	l.Ends = append(l.Ends, len(l.Nodes))
}

// At returns path i as a view into Nodes, valid until the next Add.
func (l *PathList) At(i int) Path {
	start := 0
	if i > 0 {
		start = l.Ends[i-1]
	}
	end := l.Ends[i]
	return Path(l.Nodes[start:end:end])
}
