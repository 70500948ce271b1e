package routing

import (
	"slices"

	"repro/internal/topology"
)

// Segments enumerates shortest valley-free (up-down) segments over one
// snapshot of a graph's healthy links, for callers that ask about many
// pairs: one BFS per (source, first-hop mode) serves every destination,
// and nothing on the way is keyed by a map or a string. A valley-free
// path ascends in layer, optionally turns once, and then descends; it
// never goes up after going down. Link health changes after NewSegments
// are not seen. Not safe for concurrent use.
type Segments struct {
	adj   Adjacency
	layer []int32
	host  []bool // plain hosts: they originate and sink but never forward
	// rank[n] is the position of n's decimal string among all node IDs'
	// decimal strings. Path.Key() order is the contract of every result;
	// paths of one pair have equal length, so comparing them element-wise
	// by rank is comparing their keys ("10" sorts before "9", and a
	// string sorts after its own prefixes because ',' < '0').
	rank []int32

	rows  []*segRow // by 2*src + firstUp; nil until first asked
	arena []topology.NodeID
	queue []int32
	buf   []topology.NodeID
}

// segRow is the BFS of one (source, first-hop mode) and the segment lists
// carved from it so far.
type segRow struct {
	dist []int32  // by state 2*node + phase; -1 = unreachable
	segs [][]Path // by destination; nil = not carved yet
}

// Phase 0 is "still ascending (may turn down)", phase 1 "descending".
const (
	phaseUp   = 0
	phaseDown = 1
)

// noSegments marks a carved destination that has no valley-free route.
var noSegments = []Path{}

// NewSegments snapshots g's healthy links.
func NewSegments(g *topology.Graph) *Segments {
	n := g.NumNodes()
	s := &Segments{
		adj:   NewAdjacency(g),
		layer: make([]int32, n),
		host:  make([]bool, n),
		rank:  decimalRanks(n),
		rows:  make([]*segRow, 2*n),
	}
	for u := 0; u < n; u++ {
		node := g.Node(topology.NodeID(u))
		s.layer[u] = int32(node.Layer)
		s.host[u] = node.Kind == topology.KindHost
	}
	return s
}

// decimalRanks returns, for every ID in [0, n), its position when the IDs
// are sorted as decimal strings: 0, 1, 10, 100, ..., 11, ..., 2, 20, ...
func decimalRanks(n int) []int32 {
	rank := make([]int32, n)
	cur := 1
	for r := 1; r < n; r++ {
		rank[cur] = int32(r)
		if cur*10 < n {
			cur *= 10
			continue
		}
		for cur%10 == 9 || cur+1 >= n {
			cur /= 10
		}
		cur++
	}
	return rank
}

// Between returns every shortest valley-free segment from src to dst —
// with the first hop forced to ascend when firstUp — in Path.Key() order,
// nil when there is none. Both endpoints may be hosts or switches. The
// list and its paths are memoized and shared: do not modify them.
//
// firstUp is the continuation a bounced packet takes: it arrived
// descending and must go back up (§4.2). The constraint binds the first
// hop only, so when dst lies below src the shortest such walk may climb
// one switch and come back down THROUGH src. Those are returned as found:
// src is the only node a result can repeat.
func (s *Segments) Between(src, dst topology.NodeID, firstUp bool) []Path {
	if src == dst {
		return []Path{{src}}
	}
	r := s.row(src, firstUp)
	segs := r.segs[dst]
	if segs == nil {
		if segs = s.carve(r, src, dst, firstUp); segs == nil {
			segs = noSegments
		}
		r.segs[dst] = segs
	}
	if len(segs) == 0 {
		return nil
	}
	return segs
}

// row returns the BFS from (src, ascending) over (node, phase) states,
// running it on first use.
func (s *Segments) row(src topology.NodeID, firstUp bool) *segRow {
	ri := 2 * int(src)
	if firstUp {
		ri++
	}
	if r := s.rows[ri]; r != nil {
		return r
	}
	n := len(s.layer)
	r := &segRow{dist: make([]int32, 2*n), segs: make([][]Path, n)}
	for i := range r.dist {
		r.dist[i] = -1
	}
	start := 2*int32(src) + phaseUp
	r.dist[start] = 0
	queue := append(s.queue[:0], start)
	for qi := 0; qi < len(queue); qi++ {
		st := queue[qi]
		u, phase := topology.NodeID(st>>1), st&1
		if u != src && s.host[u] {
			continue
		}
		for _, v := range s.adj.Of(u) {
			var next int32
			switch {
			case phase == phaseUp && s.layer[v] > s.layer[u]:
				next = 2*int32(v) + phaseUp
			case s.layer[v] < s.layer[u]:
				if firstUp && st == start {
					continue // first hop must ascend
				}
				next = 2*int32(v) + phaseDown
			default:
				continue // same-layer or up-after-down moves are not valley-free
			}
			if r.dist[next] < 0 {
				r.dist[next] = r.dist[st] + 1
				queue = append(queue, next)
			}
		}
	}
	s.queue = queue
	s.rows[ri] = r
	return r
}

// carve materializes the shortest segments src → dst of a finished row by
// walking backward from dst over predecessors one step closer to src, and
// puts them in Key order.
func (s *Segments) carve(r *segRow, src, dst topology.NodeID, firstUp bool) []Path {
	up, down := r.dist[2*int32(dst)+phaseUp], r.dist[2*int32(dst)+phaseDown]
	best := up
	if best < 0 || (down >= 0 && down < best) {
		best = down
	}
	if best < 0 {
		return nil
	}
	if cap(s.buf) <= int(best) {
		s.buf = make([]topology.NodeID, best+1)
	}
	w := segWalk{s: s, r: r, src: src, firstUp: firstUp, buf: s.buf[:best+1]}
	for phase := int32(phaseUp); phase <= phaseDown; phase++ {
		if r.dist[2*int32(dst)+phase] == best {
			w.back(dst, phase, best)
		}
	}
	if len(w.out) > 1 {
		rank := s.rank
		slices.SortFunc(w.out, func(a, b Path) int {
			for i := range a {
				if a[i] != b[i] {
					return int(rank[a[i]]) - int(rank[b[i]])
				}
			}
			return 0
		})
	}
	return w.out
}

// segWalk is the state of one carve.
type segWalk struct {
	s       *Segments
	r       *segRow
	src     topology.NodeID
	firstUp bool
	buf     []topology.NodeID // the path under construction, filled from the end
	out     []Path
}

// back places v at position d and recurses into every state that reaches
// (v, phase) in one valley-free move from distance d-1.
func (w *segWalk) back(v topology.NodeID, phase, d int32) {
	s := w.s
	w.buf[d] = v
	if d == 0 {
		w.out = append(w.out, s.alloc(w.buf))
		return
	}
	for _, u := range s.adj.Of(v) {
		if u != w.src && s.host[u] {
			continue
		}
		if phase == phaseUp {
			if s.layer[u] < s.layer[v] && w.r.dist[2*int32(u)+phaseUp] == d-1 {
				w.back(u, phaseUp, d-1)
			}
		} else if s.layer[u] > s.layer[v] {
			// (src, ascending) is the start state: under firstUp it may not
			// step down.
			if w.r.dist[2*int32(u)+phaseUp] == d-1 && !(w.firstUp && d == 1) {
				w.back(u, phaseUp, d-1)
			}
			if w.r.dist[2*int32(u)+phaseDown] == d-1 {
				w.back(u, phaseDown, d-1)
			}
		}
	}
}

// segChunk is the node count of one arena block; every carved segment is
// a cap-limited view into a block, so a fabric's few thousand segments
// cost a handful of allocations.
const segChunk = 4096

// alloc copies p into the arena.
func (s *Segments) alloc(p []topology.NodeID) Path {
	if cap(s.arena)-len(s.arena) < len(p) {
		s.arena = make([]topology.NodeID, 0, max(segChunk, len(p)))
	}
	lo := len(s.arena)
	s.arena = append(s.arena, p...)
	return Path(s.arena[lo:len(s.arena):len(s.arena)])
}
