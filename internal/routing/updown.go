package routing

import (
	"sort"

	"repro/internal/topology"
)

// UpDownPaths enumerates all shortest valley-free (up-down) paths from src
// to dst over healthy links: the path ascends in layer, optionally turns
// once, and then descends; it never goes up after going down. limit <= 0
// means unlimited. Both endpoints may be hosts or switches.
func UpDownPaths(g *topology.Graph, src, dst topology.NodeID, limit int) []Path {
	return upDownPaths(g, src, dst, limit, false)
}

// UpDownPathsFirstUp is UpDownPaths restricted to paths whose first hop
// ascends in layer. This is the continuation a bounced packet takes: it
// arrived descending and must go back up (§4.2), so the usual shortest
// valley-free route (which may start downward) is not available to it.
func UpDownPathsFirstUp(g *topology.Graph, src, dst topology.NodeID, limit int) []Path {
	return upDownPaths(g, src, dst, limit, true)
}

func upDownPaths(g *topology.Graph, src, dst topology.NodeID, limit int, firstUp bool) []Path {
	if src == dst {
		return []Path{{src}}
	}
	// State BFS: phase 0 = still ascending (may turn down), 1 = descending.
	type state struct {
		node  topology.NodeID
		phase int
	}
	dist := map[state]int{{src, 0}: 0}
	parents := map[state][]state{}
	queue := []state{{src, 0}}
	best := -1
	var nbuf []topology.NodeID
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		d := dist[cur]
		if best >= 0 && d >= best {
			continue
		}
		if cur.node != src && g.Node(cur.node).Kind == topology.KindHost {
			continue // hosts do not forward
		}
		curLayer := g.Node(cur.node).Layer
		nbuf = g.Neighbors(cur.node, nbuf[:0])
		for _, v := range nbuf {
			vLayer := g.Node(v).Layer
			var next state
			switch {
			case cur.phase == 0 && vLayer > curLayer:
				next = state{v, 0}
			case vLayer < curLayer:
				if firstUp && cur.node == src && cur.phase == 0 {
					continue // first hop must ascend
				}
				next = state{v, 1}
			default:
				continue // same-layer or up-after-down moves are not valley-free
			}
			nd, seen := dist[next]
			switch {
			case !seen:
				dist[next] = d + 1
				parents[next] = append(parents[next], cur)
				queue = append(queue, next)
				if v == dst && (best < 0 || d+1 < best) {
					best = d + 1
				}
			case nd == d+1:
				parents[next] = append(parents[next], cur)
			}
		}
	}
	if best < 0 {
		return nil
	}
	// Collect shortest-distance terminal states for dst.
	var terms []state
	for _, ph := range []int{0, 1} {
		s := state{dst, ph}
		if d, ok := dist[s]; ok && d == best {
			terms = append(terms, s)
		}
	}
	var out PathIndex
	var walk func(s state, suffix Path) bool
	walk = func(s state, suffix Path) bool {
		suffix = append(suffix, s.node)
		if s.node == src && len(suffix) == best+1 {
			p := make(Path, len(suffix))
			for i, n := range suffix {
				p[len(suffix)-1-i] = n
			}
			out.Add(p)
			return limit > 0 && out.Len() >= limit
		}
		ps := parents[s]
		// Deterministic order.
		sort.Slice(ps, func(a, b int) bool {
			if ps[a].node != ps[b].node {
				return ps[a].node < ps[b].node
			}
			return ps[a].phase < ps[b].phase
		})
		for _, par := range ps {
			if walk(par, suffix) {
				return true
			}
		}
		return false
	}
	for _, tstate := range terms {
		if walk(tstate, make(Path, 0, best+1)) {
			break
		}
	}
	// Key order is the contract here: it fixes the order paths enter every
	// Clos ELP, and with it tag numbering downstream.
	paths := out.Paths()
	keys := make([]string, len(paths))
	for i, p := range paths {
		keys[i] = p.Key()
	}
	sort.Sort(byKey{paths, keys})
	return paths
}

// byKey sorts paths by their precomputed Key() strings.
type byKey struct {
	paths []Path
	keys  []string
}

func (s byKey) Len() int           { return len(s.paths) }
func (s byKey) Less(a, b int) bool { return s.keys[a] < s.keys[b] }
func (s byKey) Swap(a, b int) {
	s.paths[a], s.paths[b] = s.paths[b], s.paths[a]
	s.keys[a], s.keys[b] = s.keys[b], s.keys[a]
}

// UpDownDistance returns the shortest valley-free hop count from src to
// dst, or -1 if no valley-free path exists.
func UpDownDistance(g *topology.Graph, src, dst topology.NodeID) int {
	ps := UpDownPaths(g, src, dst, 1)
	if len(ps) == 0 {
		return -1
	}
	return ps[0].Hops()
}
