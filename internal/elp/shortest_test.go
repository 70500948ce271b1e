package elp_test

import (
	"slices"
	"testing"

	"repro/internal/check"
	"repro/internal/elp"
	"repro/internal/routing"
	"repro/internal/topology"
)

// refBFSScratch and refShortestTreePaths are ShortestAllN's BFS as it
// was before it read ports from the adjacency and left plain hosts out
// of the search, kept verbatim as the reference for its output.
type refBFSScratch struct {
	dist   []int32
	parent []topology.NodeID
	queue  []topology.NodeID
}

func refShortestTreePaths(g *topology.Graph, adj routing.Adjacency, src topology.NodeID, endpoints []topology.NodeID, sc *refBFSScratch) []routing.Path {
	n := g.NumNodes()
	if cap(sc.dist) < n {
		sc.dist = make([]int32, n)
		sc.parent = make([]topology.NodeID, n)
	}
	dist, parent := sc.dist[:n], sc.parent[:n]
	for i := range dist {
		dist[i] = -1
		parent[i] = topology.InvalidNode
	}
	dist[src] = 0
	queue := append(sc.queue[:0], src)
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		if u != src && g.Node(u).Kind == topology.KindHost {
			continue
		}
		for _, v := range adj.Of(u) {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	sc.queue = queue
	// All paths of one source share a single backing arena: two
	// allocations per source instead of one per destination.
	total := 0
	count := 0
	for _, b := range endpoints {
		if b != src && dist[b] >= 0 {
			total += int(dist[b]) + 1
			count++
		}
	}
	arena := make([]topology.NodeID, total)
	out := make([]routing.Path, 0, count)
	off := 0
	for _, b := range endpoints {
		if b == src || dist[b] < 0 {
			continue
		}
		p := routing.Path(arena[off : off+int(dist[b])+1])
		off += int(dist[b]) + 1
		for cur, i := b, int(dist[b]); i >= 0; cur, i = parent[cur], i-1 {
			p[i] = cur
		}
		out = append(out, p)
	}
	return out
}

// refShortestAll is the serial ShortestAllN of the reference: every path
// through the validating Set.Add.
func refShortestAll(g *topology.Graph, endpoints []topology.NodeID) []routing.Path {
	adj := routing.NewAdjacency(g)
	var sc refBFSScratch
	s := elp.NewSet()
	for _, src := range endpoints {
		for _, p := range refShortestTreePaths(g, adj, src, endpoints, &sc) {
			s.MustAdd(g, p)
		}
	}
	return s.Paths()
}

// enumFabric is one fabric the enumerator is held to the reference on.
type enumFabric struct {
	name      string
	g         *topology.Graph
	endpoints []topology.NodeID
}

// genCaseFabrics builds the fuzzer's GenCase fabrics of every family.
func genCaseFabrics(t *testing.T, seeds int) []enumFabric {
	t.Helper()
	var out []enumFabric
	for _, topo := range check.Topos() {
		for seed := int64(1); seed <= int64(seeds); seed++ {
			c := check.GenCase(topo, seed)
			f := enumFabric{name: c.String()}
			switch topo {
			case "clos":
				cl, err := topology.NewClos(topology.ClosConfig{Pods: c.Pods, ToRsPerPod: c.ToRsPerPod,
					LeafsPerPod: c.LeafsPerPod, Spines: c.Spines, HostsPerToR: c.HostsPerToR})
				if err != nil {
					t.Fatal(err)
				}
				f.g, f.endpoints = cl.Graph, cl.ToRs
			case "jellyfish":
				j, err := topology.NewJellyfish(topology.JellyfishConfig{Switches: c.Switches, Ports: c.Ports,
					NetPorts: c.NetPorts, Seed: c.Seed, Attempts: 64})
				if err != nil {
					continue // the fuzzer skips unbuildable seeds too
				}
				f.g, f.endpoints = j.Graph, j.Switches
			case "bcube":
				b, err := topology.NewBCube(c.N, c.K)
				if err != nil {
					t.Fatal(err)
				}
				f.g, f.endpoints = b.Graph, b.Servers
			}
			out = append(out, f)
		}
	}
	return out
}

// oddJellyfish is a Jellyfish with a parallel link, a failed link (the
// first of a parallel pair, so the pair stays adjacent over the second),
// another failed link, and host endpoints beside the switches.
func oddJellyfish(t *testing.T) enumFabric {
	t.Helper()
	j, err := topology.NewJellyfish(topology.JellyfishConfig{Switches: 16, Ports: 6, NetPorts: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	g := j.Graph
	// firstSwitchPeer is u's lowest-port neighbor that is a switch.
	firstSwitchPeer := func(u topology.NodeID) topology.NodeID {
		for _, v := range g.Neighbors(u, nil) {
			if g.Node(v).Kind.IsSwitch() {
				return v
			}
		}
		t.Fatalf("%s has no switch neighbor", g.Node(u).Name)
		return topology.InvalidNode
	}
	a := j.Switches[0]
	b := firstSwitchPeer(a)
	g.Connect(b, a) // parallel to the a-b link, wired the other way
	g.FailLink(a, b)
	if g.LinkBetween(a, b).Failed != true {
		t.Fatal("FailLink did not fail the pair's first link")
	}
	c := j.Switches[5]
	g.FailLink(c, firstSwitchPeer(c))
	eps := append(slices.Clone(j.Switches), j.Hosts[0], j.Hosts[7], j.Hosts[len(j.Hosts)-1])
	return enumFabric{name: "jellyfish16 parallel+failed+hosts", g: g, endpoints: eps}
}

// TestShortestAllMatchesReferenceBFS: for worker counts 1 and 2,
// ShortestAllN emits the reference's paths in the reference's order, and
// every port its BFS emits is the one PortToPeer names — on GenCase
// fabrics and on a Jellyfish with a parallel link, failed links and host
// endpoints.
func TestShortestAllMatchesReferenceBFS(t *testing.T) {
	fabrics := append(genCaseFabrics(t, 8), oddJellyfish(t))
	for _, f := range fabrics {
		g := f.g
		adj := routing.NewAdjacency(g)
		for u := topology.NodeID(0); int(u) < g.NumNodes(); u++ {
			want := g.Neighbors(u, nil)
			slices.Sort(want)
			if got := adj.Of(u); !slices.Equal(got, slices.Compact(want)) {
				t.Fatalf("%s: adjacency of %s = %v, want the sorted healthy neighbors %v", f.name, g.Node(u).Name, got, want)
			}
		}
		want := refShortestAll(g, f.endpoints)
		for _, par := range []int{1, 2} {
			got := elp.ShortestAllN(g, f.endpoints, par).Paths()
			if len(got) != len(want) {
				t.Fatalf("%s par %d: %d paths, reference %d", f.name, par, len(got), len(want))
			}
			for i := range want {
				if !got[i].Equal(want[i]) {
					t.Fatalf("%s par %d: path %d = %s, reference %s", f.name, par, i, got[i].String(g), want[i].String(g))
				}
			}
		}
		for _, src := range f.endpoints {
			paths, ports := elp.ShortestTreePaths(g, f.endpoints, src)
			off := 0
			for _, p := range paths {
				for i := 1; i < len(p); i++ {
					if want := g.PortOn(p[i], g.PortToPeer(p[i], p[i-1])); ports[off+i] != want {
						t.Fatalf("%s: path %s hop %d entered by port %d, PortToPeer names %d",
							f.name, p.String(g), i, ports[off+i], want)
					}
				}
				off += len(p)
			}
			if off != len(ports) {
				t.Fatalf("%s: %d ports for %d path nodes", f.name, len(ports), off)
			}
		}
	}
}

// TestShortestAllHopCheckRejectsForgedHop: the per-hop port check that
// replaced Set.Add's pair lookup rejects a hop between non-adjacent
// nodes whatever port it is given, and a port that sits on the wrong node
// or faces the wrong one; Set.Add still rejects the forged path.
func TestShortestAllHopCheckRejectsForgedHop(t *testing.T) {
	f := oddJellyfish(t)
	g := f.g
	src := f.endpoints[0]
	paths, ports := elp.ShortestTreePaths(g, f.endpoints, src)
	var p routing.Path
	var pp []topology.PortID
	off := 0
	for _, q := range paths {
		if len(q) >= 3 {
			p, pp = q, ports[off:off+len(q)]
			break
		}
		off += len(q)
	}
	if p == nil {
		t.Fatal("fixture has no path of two hops")
	}
	if !elp.HopsValid(g, p, pp) {
		t.Fatalf("emitted path %s fails the hop check", p.String(g))
	}
	// Skip the middle node: p[0] and p[2] are not adjacent (shortest).
	forged := routing.Path{p[0], p[2]}
	for pid := topology.PortID(0); int(pid) < g.NumPorts(); pid++ {
		if elp.HopsValid(g, forged, []topology.PortID{topology.InvalidPort, pid}) {
			t.Fatalf("forged hop %s accepted with port %d", forged.String(g), pid)
		}
	}
	// Hop 2 entered by a port of the wrong node, by the right link's far
	// end (facing the wrong way), or by no port at all.
	for _, bad := range []topology.PortID{pp[1], g.FarEnd(pp[2]), topology.InvalidPort, topology.PortID(g.NumPorts())} {
		wrong := slices.Clone(pp)
		wrong[2] = bad
		if elp.HopsValid(g, p, wrong) {
			t.Fatalf("hop 2 of %s accepted with port %d", p.String(g), bad)
		}
	}
	if err := elp.NewSet().Add(g, forged); err == nil {
		t.Fatalf("Set.Add accepted the forged path %s", forged.String(g))
	}
}
