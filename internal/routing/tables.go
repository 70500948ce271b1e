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

// Tables is per-node, per-destination forwarding state: a set of ECMP
// egress ports. Packets are forwarded hop by hop; nodes hash flows across
// the port set. Tables are destination-based and memoryless, exactly like
// commodity L3 switches — a bounced packet is forwarded by the same
// entries as a fresh one.
//
// Entries are stored densely, one row per node and one column per
// destination, so the lookup the simulator makes on every hop is two
// slice indexes.
type Tables struct {
	g          *topology.Graph
	discipline Discipline
	dsts       []topology.NodeID
	// col is each node's destination column, -1 for a node outside dsts.
	col []int32
	// next[n*len(dsts)+col[dst]] is n's port set toward dst; nil: none.
	next [][]int
}

// Compute builds forwarding tables toward every destination in dsts (hosts
// and/or switches) using the given discipline over the currently healthy
// links.
func Compute(g *topology.Graph, discipline Discipline, dsts []topology.NodeID) *Tables {
	t := &Tables{
		g:          g,
		discipline: discipline,
		dsts:       append([]topology.NodeID(nil), dsts...),
		col:        make([]int32, g.NumNodes()),
		next:       make([][]int, g.NumNodes()*len(dsts)),
	}
	for i := range t.col {
		t.col[i] = -1
	}
	for c, d := range t.dsts {
		t.col[d] = int32(c)
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
	clear(t.next)
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
			t.next[t.slot(u, d)] = ports
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
			t.next[t.slot(u, d)] = ports
		}
	}
}

// slot is the index of n's entry toward dst, a destination in the set.
func (t *Tables) slot(n, dst topology.NodeID) int {
	return int(n)*len(t.dsts) + int(t.col[dst])
}

// NextHops returns the ECMP egress port set at node n toward dst, or nil
// if there is no entry (destination unreachable under the discipline, or
// outside the destination set). The returned slice must not be modified.
func (t *Tables) NextHops(n, dst topology.NodeID) []int {
	if t.col[dst] < 0 {
		return nil
	}
	return t.next[t.slot(n, dst)]
}

// NextHop returns the egress port at node n toward dst for a flow with
// the given hash, or -1 if there is no entry. The ECMP choice is salted
// with the node, so a flow spreads across a fan-out hop by hop yet always
// takes the same port at one switch (per-switch hash seeds, as real
// switches use with the 5-tuple).
func (t *Tables) NextHop(n, dst topology.NodeID, flowHash uint64) int {
	ports := t.NextHops(n, dst)
	switch len(ports) {
	case 0:
		return -1
	case 1:
		return ports[0]
	}
	x := flowHash ^ (uint64(n) * 0x9e3779b97f4a7c15)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return ports[x%uint64(len(ports))]
}

// Override replaces the entry at node n toward dst with the given egress
// ports. Passing no ports removes the entry (blackhole). This is the
// scenario hook for the paper's "manually change the routing tables"
// experiments (Fig 11, Fig 12). It panics if dst is outside the
// destination set, because a scenario asking for that is malformed.
func (t *Tables) Override(n, dst topology.NodeID, ports ...int) {
	if t.col[dst] < 0 {
		panic(fmt.Sprintf("routing: %s is not a destination of these tables", t.g.Node(dst).Name))
	}
	t.next[t.slot(n, dst)] = append([]int(nil), ports...)
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
