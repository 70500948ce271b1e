package routing

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/topology"
)

// routeResult is the outcome of walking the tables from a source.
type routeResult struct {
	Path    Path // nodes visited, starting at src
	Reached bool // dst reached
	Looped  bool // walk revisited a node twice, or ran out of hops
	Dropped bool // no entry at some node
}

// route walks tb from src toward dst by NextHop, picking among ECMP ports
// with the flow hash, for at most 64 hops. It reports loops instead of
// walking forever.
func route(tb *Tables, src, dst topology.NodeID, flowHash uint64) routeResult {
	res := routeResult{Path: Path{src}}
	seen := map[topology.NodeID]int{src: 1}
	cur := src
	for hop := 0; hop < 64; hop++ {
		if cur == dst {
			res.Reached = true
			return res
		}
		port := tb.NextHop(cur, dst, flowHash)
		if port < 0 {
			res.Dropped = true
			return res
		}
		next := tb.g.Port(tb.g.PortOn(cur, port)).Peer
		res.Path = append(res.Path, next)
		seen[next]++
		if seen[next] > 2 {
			res.Looped = true
			return res
		}
		cur = next
	}
	res.Reached = cur == dst
	res.Looped = !res.Reached
	return res
}

// entries counts the installed (node, destination) entries.
func entries(tb *Tables) int {
	k := 0
	for _, ports := range tb.next {
		if ports != nil {
			k++
		}
	}
	return k
}

func TestShortestTablesDeliver(t *testing.T) {
	c := paperClos(t)
	g := c.Graph
	tb := ComputeToHosts(g, Shortest)
	for _, src := range c.Hosts {
		for _, dst := range c.Hosts {
			if src == dst {
				continue
			}
			res := route(tb, src, dst, uint64(src)*1000003+uint64(dst))
			if !res.Reached {
				t.Fatalf("route %s->%s failed: %+v", g.Node(src).Name, g.Node(dst).Name, res)
			}
			if !res.Path.LoopFree() {
				t.Fatalf("route %s->%s loops: %s", g.Node(src).Name, g.Node(dst).Name, res.Path.String(g))
			}
		}
	}
}

func TestUpDownTablesDeliverValleyFree(t *testing.T) {
	c := paperClos(t)
	g := c.Graph
	tb := ComputeToHosts(g, UpDown)
	for _, src := range c.Hosts {
		for _, dst := range c.Hosts {
			if src == dst {
				continue
			}
			for hash := uint64(0); hash < 4; hash++ {
				res := route(tb, src, dst, hash*7919+uint64(src))
				if !res.Reached {
					t.Fatalf("route %s->%s failed: %+v", g.Node(src).Name, g.Node(dst).Name, res)
				}
				if res.Path.Bounces(g) != 0 {
					t.Fatalf("up-down route bounces: %s", res.Path.String(g))
				}
			}
		}
	}
}

func TestUpDownTablesShortest(t *testing.T) {
	c := paperClos(t)
	g := c.Graph
	tb := ComputeToHosts(g, UpDown)
	h1, h9 := g.MustLookup("H1"), g.MustLookup("H9")
	res := route(tb, h1, h9, 42)
	if res.Path.Hops() != 6 {
		t.Errorf("H1->H9 = %d hops, want 6 (%s)", res.Path.Hops(), res.Path.String(g))
	}
	h2 := g.MustLookup("H2")
	res = route(tb, h1, h2, 42)
	if res.Path.Hops() != 2 {
		t.Errorf("H1->H2 = %d hops, want 2 (%s)", res.Path.Hops(), res.Path.String(g))
	}
}

func TestShortestReconvergenceCreatesBounce(t *testing.T) {
	// The Fig-3 scenario: failing L1-T1 and recomputing shortest routes
	// makes traffic to T1's hosts that lands on L1 bounce back up.
	c := paperClos(t)
	g := c.Graph
	n := func(name string) topology.NodeID { return g.MustLookup(name) }
	tb := ComputeToHosts(g, Shortest)
	g.FailLink(n("L1"), n("T1"))
	tb.Recompute()
	// From S1, traffic for H1 (under T1) can no longer go S1->L1->T1.
	// Route from a pod-1 host to H1 must avoid the dead link and stay
	// loop-free.
	found := false
	for hash := uint64(0); hash < 32; hash++ {
		res := route(tb, n("H9"), n("H1"), hash)
		if !res.Reached {
			t.Fatalf("reroute failed: %+v", res)
		}
		for i := 1; i < len(res.Path); i++ {
			if res.Path[i-1] == n("L1") && res.Path[i] == n("T1") {
				t.Fatalf("route uses failed link: %s", res.Path.String(g))
			}
		}
		if res.Path.Bounces(g) > 0 {
			found = true
		}
	}
	// With ECMP someone will land on L1 and bounce; if all 32 hashes
	// avoided L1 the test is vacuous, which deterministic hashing makes
	// effectively impossible on this small fabric.
	if !found {
		t.Log("warning: no hash produced a bounced path; ECMP avoided L1 entirely")
	}
}

func TestOverrideAndLoopDetection(t *testing.T) {
	c := paperClos(t)
	g := c.Graph
	n := func(name string) topology.NodeID { return g.MustLookup(name) }
	tb := ComputeToHosts(g, UpDown)
	// Install the Fig-11 routing loop: T1 sends H6-bound traffic to L1,
	// L1 sends it back to T1.
	tb.OverrideNextNode(n("T1"), n("H6"), n("L1"))
	tb.OverrideNextNode(n("L1"), n("H6"), n("T1"))
	res := route(tb, n("H1"), n("H6"), 1)
	if !res.Looped {
		t.Fatalf("expected loop, got %+v (%s)", res, res.Path.String(g))
	}
}

func TestOverrideBlackhole(t *testing.T) {
	c := paperClos(t)
	g := c.Graph
	n := func(name string) topology.NodeID { return g.MustLookup(name) }
	tb := ComputeToHosts(g, UpDown)
	tb.Override(n("T1"), n("H9")) // remove entry
	res := route(tb, n("H1"), n("H9"), 1)
	if !res.Dropped {
		t.Fatalf("expected drop, got %+v", res)
	}
}

func TestOverrideNextNodePanicsOnNonAdjacent(t *testing.T) {
	c := paperClos(t)
	g := c.Graph
	tb := ComputeToHosts(g, UpDown)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tb.OverrideNextNode(g.MustLookup("T1"), g.MustLookup("H9"), g.MustLookup("S1"))
}

func TestTablesAccessors(t *testing.T) {
	c := paperClos(t)
	g := c.Graph
	tb := ComputeToHosts(g, Shortest)
	if len(tb.dsts) != len(c.Hosts) {
		t.Error("destination set")
	}
	if entries(tb) == 0 {
		t.Error("no entries installed")
	}
	if got := tb.NextHops(g.MustLookup("S1"), g.MustLookup("H1")); len(got) == 0 {
		t.Error("S1 should have a route to H1")
	}
}

func TestECMPSpreads(t *testing.T) {
	c := paperClos(t)
	g := c.Graph
	tb := ComputeToHosts(g, UpDown)
	h1, h9 := g.MustLookup("H1"), g.MustLookup("H9")
	seen := map[string]bool{}
	for hash := uint64(0); hash < 64; hash++ {
		res := route(tb, h1, h9, hash)
		seen[res.Path.Key()] = true
	}
	if len(seen) < 2 {
		t.Errorf("ECMP produced only %d distinct paths over 64 hashes", len(seen))
	}
}

func TestTablesOnFatTree(t *testing.T) {
	ft, err := topology.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	g := ft.Graph
	tb := ComputeToHosts(g, UpDown)
	// Every host pair is reachable valley-free.
	hosts := ft.Hosts
	for i := 0; i < len(hosts); i += 3 {
		for j := 0; j < len(hosts); j += 5 {
			if hosts[i] == hosts[j] {
				continue
			}
			res := route(tb, hosts[i], hosts[j], uint64(i*31+j))
			if !res.Reached || res.Path.Bounces(g) != 0 {
				t.Fatalf("fat-tree route %d->%d: %+v (%s)", i, j, res, res.Path.String(g))
			}
		}
	}
}

// snapshot copies every (node, destination) answer of tb.
func snapshot(tb *Tables) map[[2]topology.NodeID][]int {
	g := tb.g
	out := map[[2]topology.NodeID][]int{}
	for n := 0; n < g.NumNodes(); n++ {
		for d := 0; d < g.NumNodes(); d++ {
			if ports := tb.NextHops(topology.NodeID(n), topology.NodeID(d)); ports != nil {
				out[[2]topology.NodeID{topology.NodeID(n), topology.NodeID(d)}] = slices.Clone(ports)
			}
		}
	}
	return out
}

// TestTablesMutations: every way an entry can change shows through
// NextHops at once and touches no other entry; Recompute restores what a
// fresh Compute answers; NextHop reads the same entry; and an Override
// toward a node outside the destination set panics.
func TestTablesMutations(t *testing.T) {
	c := paperClos(t)
	g := c.Graph
	n := func(name string) topology.NodeID { return g.MustLookup(name) }
	tb := ComputeToHosts(g, UpDown)
	fresh := snapshot(tb)
	if len(fresh) != entries(tb) {
		t.Fatalf("%d non-empty answers, entries = %d", len(fresh), entries(tb))
	}
	if tb.NextHops(n("T1"), n("S1")) != nil {
		t.Fatal("an entry toward a switch outside the destination set")
	}
	t3, h1 := n("T3"), n("H1")
	if len(tb.NextHops(t3, h1)) < 2 {
		t.Fatalf("T3->H1 = %v, want an ECMP set", tb.NextHops(t3, h1))
	}

	key := [2]topology.NodeID{t3, h1}
	expect := func(after string, want []int) {
		t.Helper()
		got := snapshot(tb)
		for k, ports := range fresh {
			if k != key && !slices.Equal(got[k], ports) {
				t.Fatalf("after %s: entry %v = %v, was %v", after, k, got[k], ports)
			}
		}
		if !slices.Equal(got[key], want) || len(got) != entries(tb) {
			t.Fatalf("after %s: T3->H1 = %v, want %v (%d answers, entries %d)", after, got[key], want, len(got), entries(tb))
		}
		if nh := tb.NextHop(t3, h1, 7); (len(want) == 0) != (nh < 0) || (nh >= 0 && !slices.Contains(want, nh)) {
			t.Fatalf("after %s: NextHop = %d outside %v", after, nh, want)
		}
	}
	l4 := g.PortToPeer(t3, n("L4"))
	tb.Override(t3, h1, l4)
	expect("Override", []int{l4})
	tb.Override(t3, h1) // blackhole
	expect("Override to no ports", nil)
	tb.OverrideNextNode(t3, h1, n("L3"))
	expect("OverrideNextNode", []int{g.PortToPeer(t3, n("L3"))})
	tb.Recompute()
	expect("Recompute", fresh[key])

	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "not a destination") {
			t.Fatalf("Override toward a switch recovered %v, want a panic", r)
		}
	}()
	tb.Override(t3, n("S1"), l4)
}

// TestRouteFollowsNextHop: route's walk is NextHop applied node by node,
// so a flow takes the same port at a switch however it got there — the
// choice the simulator's forwarding makes.
func TestRouteFollowsNextHop(t *testing.T) {
	c := paperClos(t)
	g := c.Graph
	tb := ComputeToHosts(g, UpDown)
	for hash := uint64(0); hash < 16; hash++ {
		src, dst := c.Hosts[0], c.Hosts[len(c.Hosts)-1]
		res := route(tb, src, dst, hash)
		if !res.Reached {
			t.Fatalf("hash %d: %+v", hash, res)
		}
		for i := 0; i+1 < len(res.Path); i++ {
			out := tb.NextHop(res.Path[i], dst, hash)
			if peer := g.Port(g.PortOn(res.Path[i], out)).Peer; peer != res.Path[i+1] {
				t.Fatalf("hash %d: route went %s->%s, NextHop leads to %s", hash,
					g.Node(res.Path[i]).Name, g.Node(res.Path[i+1]).Name, g.Node(peer).Name)
			}
		}
	}
}
