package routing

import (
	"fmt"
	"sort"

	"repro/internal/topology"
)

// Discipline selects how forwarding tables are computed.
type Discipline uint8

const (
	// Shortest computes plain shortest-path next hops over healthy links
	// (valleys allowed). This models what BGP/OSPF converge to after
	// failures: detour routes may bounce.
	Shortest Discipline = iota
	// UpDown computes valley-free next hops for layered fabrics: prefer a
	// shortest valley-free route; destinations with no valley-free route
	// get no entry.
	UpDown
)

// tableKey identifies one forwarding entry.
type tableKey struct {
	node topology.NodeID
	dst  topology.NodeID
}

// Tables is per-node, per-destination forwarding state: a set of ECMP
// egress ports. Packets are forwarded hop by hop; nodes hash flows across
// the port set. Tables are destination-based and memoryless, exactly like
// commodity L3 switches — a bounced packet is forwarded by the same
// entries as a fresh one.
type Tables struct {
	g          *topology.Graph
	discipline Discipline
	next       map[tableKey][]int
	dsts       []topology.NodeID
	// gen counts the mutations (Recompute, Override) since construction.
	// Readers that memoize NextHops results — the simulator's forwarding
	// memo — compare it to drop their copies.
	gen uint64
}

// Compute builds forwarding tables toward every destination in dsts (hosts
// and/or switches) using the given discipline over the currently healthy
// links.
func Compute(g *topology.Graph, discipline Discipline, dsts []topology.NodeID) *Tables {
	t := &Tables{
		g:          g,
		discipline: discipline,
		next:       make(map[tableKey][]int),
		dsts:       append([]topology.NodeID(nil), dsts...),
	}
	t.Recompute()
	return t
}

// ComputeToHosts builds tables toward every host.
func ComputeToHosts(g *topology.Graph, discipline Discipline) *Tables {
	return Compute(g, discipline, g.Hosts())
}

// Recompute rebuilds all entries from the current healthy-link state,
// discarding overrides. Use it to model routing reconvergence after
// failures.
func (t *Tables) Recompute() {
	t.gen++
	t.next = make(map[tableKey][]int)
	for _, d := range t.dsts {
		switch t.discipline {
		case Shortest:
			t.computeShortestTo(d)
		case UpDown:
			t.computeUpDownTo(d)
		}
	}
}

// computeShortestTo installs shortest-path next hops toward d via reverse
// BFS (hosts are not transit).
func (t *Tables) computeShortestTo(d topology.NodeID) {
	g := t.g
	dist := make([]int, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[d] = 0
	queue := []topology.NodeID{d}
	var nbuf []topology.NodeID
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		nbuf = g.Neighbors(u, nbuf[:0])
		for _, v := range nbuf {
			if dist[v] != -1 {
				continue
			}
			dist[v] = dist[u] + 1
			// Hosts receive a distance (they originate traffic and need a
			// first-hop entry) but are never expanded: packets do not
			// transit hosts.
			if g.Node(v).Kind != topology.KindHost {
				queue = append(queue, v)
			}
		}
	}
	for n := 0; n < g.NumNodes(); n++ {
		u := topology.NodeID(n)
		if u == d || dist[u] < 0 {
			continue
		}
		var ports []int
		nbuf = g.Neighbors(u, nbuf[:0])
		for _, v := range nbuf {
			if v != d && g.Node(v).Kind == topology.KindHost {
				continue // never forward toward a non-destination host
			}
			if dist[v] >= 0 && dist[v] == dist[u]-1 {
				ports = append(ports, g.PortToPeer(u, v))
			}
		}
		sort.Ints(ports)
		if len(ports) > 0 {
			t.next[tableKey{u, d}] = ports
		}
	}
}

// computeUpDownTo installs valley-free next hops toward d.
//
// For each node u, let down[u] be the down-only distance to d (descending
// layers all the way), and vf[u] = min(down[u], 1 + min over up-neighbors
// v of vf[v]). Processing nodes in descending layer order makes the
// up-recursion well-founded because "up" strictly increases layer.
func (t *Tables) computeUpDownTo(d topology.NodeID) {
	g := t.g
	const inf = int(^uint(0) >> 2)
	down := make([]int, g.NumNodes())
	for i := range down {
		down[i] = inf
	}
	down[d] = 0
	// BFS from d moving to strictly higher layers: down[u] is then the
	// length of the descending path u -> ... -> d.
	queue := []topology.NodeID{d}
	var nbuf []topology.NodeID
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		nbuf = g.Neighbors(u, nbuf[:0])
		for _, v := range nbuf {
			if g.Node(v).Kind == topology.KindHost {
				continue
			}
			if g.Node(v).Layer > g.Node(u).Layer && down[v] == inf {
				down[v] = down[u] + 1
				queue = append(queue, v)
			}
		}
	}

	// Order nodes by descending layer.
	order := make([]topology.NodeID, 0, g.NumNodes())
	for n := 0; n < g.NumNodes(); n++ {
		order = append(order, topology.NodeID(n))
	}
	sort.Slice(order, func(a, b int) bool {
		return g.Node(order[a]).Layer > g.Node(order[b]).Layer
	})

	vf := make([]int, g.NumNodes())
	for i := range vf {
		vf[i] = down[i]
	}
	for _, u := range order {
		nbuf = g.Neighbors(u, nbuf[:0])
		for _, v := range nbuf {
			if g.Node(v).Layer <= g.Node(u).Layer || g.Node(v).Kind == topology.KindHost {
				continue
			}
			if vf[v] < inf && vf[v]+1 < vf[u] {
				vf[u] = vf[v] + 1
			}
		}
	}

	for n := 0; n < g.NumNodes(); n++ {
		u := topology.NodeID(n)
		if u == d || vf[u] >= inf {
			continue
		}
		var ports []int
		nbuf = g.Neighbors(u, nbuf[:0])
		for _, v := range nbuf {
			if v != d && g.Node(v).Kind == topology.KindHost {
				continue
			}
			lu, lv := g.Node(u).Layer, g.Node(v).Layer
			switch {
			case lv < lu && down[u] < inf && down[v] == down[u]-1 && vf[u] == down[u]:
				ports = append(ports, g.PortToPeer(u, v))
			case lv > lu && vf[v] < inf && vf[v]+1 == vf[u]:
				ports = append(ports, g.PortToPeer(u, v))
			}
		}
		sort.Ints(ports)
		if len(ports) > 0 {
			t.next[tableKey{u, d}] = ports
		}
	}
}

// NextHops returns the ECMP egress port set at node n toward dst, or nil
// if there is no entry (destination unreachable under the discipline).
// The returned slice must not be modified.
func (t *Tables) NextHops(n, dst topology.NodeID) []int {
	return t.next[tableKey{n, dst}]
}

// Generation changes whenever an entry may have: after every Recompute
// and Override. A NextHops result is valid for as long as it holds.
func (t *Tables) Generation() uint64 { return t.gen }

// Override replaces the entry at node n toward dst with the given egress
// ports. Passing no ports removes the entry (blackhole). This is the
// scenario hook for the paper's "manually change the routing tables"
// experiments (Fig 11, Fig 12).
func (t *Tables) Override(n, dst topology.NodeID, ports ...int) {
	t.gen++
	if len(ports) == 0 {
		delete(t.next, tableKey{n, dst})
		return
	}
	t.next[tableKey{n, dst}] = append([]int(nil), ports...)
}

// OverrideNextNode points n's entry for dst at the single neighbor next.
// It panics if the nodes are not adjacent, because a scenario asking for
// that is malformed.
func (t *Tables) OverrideNextNode(n, dst, next topology.NodeID) {
	p := t.g.PortToPeer(n, next)
	if p < 0 {
		panic(fmt.Sprintf("routing: %s is not adjacent to %s",
			t.g.Node(n).Name, t.g.Node(next).Name))
	}
	t.Override(n, dst, p)
}

// RouteResult is the outcome of walking the tables from a source.
type RouteResult struct {
	Path    Path // nodes visited, starting at src
	Reached bool // dst reached
	Looped  bool // walk revisited a (node, entry) state
	Dropped bool // no entry at some node
}

// Route walks the forwarding tables from src toward dst, picking among
// ECMP ports with the flow hash, for at most maxHops hops (<= 0 means 64,
// a TTL-like default). It reports loops instead of walking forever.
func (t *Tables) Route(src, dst topology.NodeID, flowHash uint64, maxHops int) RouteResult {
	if maxHops <= 0 {
		maxHops = 64
	}
	res := RouteResult{Path: Path{src}}
	seen := map[topology.NodeID]int{src: 1}
	cur := src
	for hop := 0; hop < maxHops; hop++ {
		if cur == dst {
			res.Reached = true
			return res
		}
		ports := t.NextHops(cur, dst)
		if len(ports) == 0 {
			res.Dropped = true
			return res
		}
		port := ports[ecmpIndex(flowHash, uint64(hop), len(ports))]
		next := t.g.Port(t.g.PortOn(cur, port)).Peer
		res.Path = append(res.Path, next)
		seen[next]++
		if seen[next] > 2 {
			res.Looped = true
			return res
		}
		cur = next
	}
	if cur == dst {
		res.Reached = true
	} else {
		res.Looped = true
	}
	return res
}

// ecmpIndex deterministically selects an ECMP member from a flow hash.
// The hop count is mixed in so that a flow does not always pick index 0
// at every switch of an equal-cost fan-out (per-hop field hashing, as
// real switches do with the 5-tuple plus inbound context).
func ecmpIndex(flowHash, hop uint64, n int) int {
	x := flowHash ^ (hop * 0x9e3779b97f4a7c15)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return int(x % uint64(n))
}

// Entries returns the number of installed forwarding entries.
func (t *Tables) Entries() int { return len(t.next) }

// Graph returns the topology the tables were computed over.
func (t *Tables) Graph() *topology.Graph { return t.g }

// Destinations returns the destination set the tables cover.
func (t *Tables) Destinations() []topology.NodeID { return t.dsts }
