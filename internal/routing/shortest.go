package routing

import (
	"sort"

	"repro/internal/topology"
)

// bfsTree holds BFS distances and shortest-path predecessors from one
// source over healthy links.
type bfsTree struct {
	dist    []int               // -1 = unreachable
	parents [][]topology.NodeID // all shortest-path predecessors
}

// bfsFrom runs BFS from src over healthy links. If switchOnly is set, host
// nodes are not expanded (they never forward), though they can terminate a
// path.
func bfsFrom(g *topology.Graph, src topology.NodeID, switchOnly bool) *bfsTree {
	n := g.NumNodes()
	t := &bfsTree{dist: make([]int, n), parents: make([][]topology.NodeID, n)}
	for i := range t.dist {
		t.dist[i] = -1
	}
	t.dist[src] = 0
	queue := []topology.NodeID{src}
	var nbuf []topology.NodeID
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if switchOnly && u != src && g.Node(u).Kind == topology.KindHost {
			continue // hosts do not forward
		}
		nbuf = g.Neighbors(u, nbuf[:0])
		for _, v := range nbuf {
			switch {
			case t.dist[v] == -1:
				t.dist[v] = t.dist[u] + 1
				t.parents[v] = append(t.parents[v], u)
				queue = append(queue, v)
			case t.dist[v] == t.dist[u]+1:
				t.parents[v] = append(t.parents[v], u)
			}
		}
	}
	// Deterministic parent order.
	for i := range t.parents {
		ps := t.parents[i]
		sort.Slice(ps, func(a, b int) bool { return ps[a] < ps[b] })
	}
	return t
}

// ShortestPath returns one shortest path from src to dst over healthy
// links, breaking ties deterministically by smallest node ID, or nil if
// dst is unreachable. Hosts are never used as transit.
func ShortestPath(g *topology.Graph, src, dst topology.NodeID) Path {
	if src == dst {
		return Path{src}
	}
	t := bfsFrom(g, src, true)
	if t.dist[dst] < 0 {
		return nil
	}
	rev := Path{dst}
	cur := dst
	for cur != src {
		cur = t.parents[cur][0]
		rev = append(rev, cur)
	}
	// Reverse in place.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// AllShortestPaths enumerates every shortest path from src to dst over
// healthy links, up to limit paths (limit <= 0 means no limit). Hosts are
// never transit nodes.
func AllShortestPaths(g *topology.Graph, src, dst topology.NodeID, limit int) []Path {
	if src == dst {
		return []Path{{src}}
	}
	t := bfsFrom(g, src, true)
	if t.dist[dst] < 0 {
		return nil
	}
	var out []Path
	var walk func(cur topology.NodeID, suffix Path) bool
	walk = func(cur topology.NodeID, suffix Path) bool {
		suffix = append(suffix, cur)
		if cur == src {
			p := make(Path, len(suffix))
			for i, n := range suffix {
				p[len(suffix)-1-i] = n
			}
			out = append(out, p)
			return limit > 0 && len(out) >= limit
		}
		for _, par := range t.parents[cur] {
			if walk(par, suffix) {
				return true
			}
		}
		return false
	}
	walk(dst, make(Path, 0, t.dist[dst]+1))
	return out
}
