package topology

import (
	"testing"
	"testing/quick"
)

func TestAddNodeAndLookup(t *testing.T) {
	g := New()
	a := g.AddNode("A", KindSwitch, -1)
	b := g.AddNode("B", KindHost, 0)
	if g.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d, want 2", g.NumNodes())
	}
	if id, ok := g.Lookup("A"); !ok || id != a {
		t.Errorf("Lookup(A) = %d,%v want %d,true", id, ok, a)
	}
	if id, ok := g.Lookup("B"); !ok || id != b {
		t.Errorf("Lookup(B) = %d,%v want %d,true", id, ok, b)
	}
	if _, ok := g.Lookup("C"); ok {
		t.Error("Lookup(C) should fail")
	}
	if g.Node(a).Kind != KindSwitch || g.Node(b).Kind != KindHost {
		t.Error("node kinds wrong")
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate node name")
		}
	}()
	g := New()
	g.AddNode("X", KindSwitch, -1)
	g.AddNode("X", KindSwitch, -1)
}

func TestSelfLinkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on self-link")
		}
	}()
	g := New()
	a := g.AddNode("A", KindSwitch, -1)
	g.Connect(a, a)
}

func TestConnectAllocatesPortsInOrder(t *testing.T) {
	g := New()
	a := g.AddNode("A", KindSwitch, -1)
	b := g.AddNode("B", KindSwitch, -1)
	c := g.AddNode("C", KindSwitch, -1)
	g.Connect(a, b)
	g.Connect(a, c)
	if g.PortCount(a) != 2 {
		t.Fatalf("A has %d ports, want 2", g.PortCount(a))
	}
	if got := g.PortToPeer(a, b); got != 0 {
		t.Errorf("A->B port = %d, want 0", got)
	}
	if got := g.PortToPeer(a, c); got != 1 {
		t.Errorf("A->C port = %d, want 1", got)
	}
	if got := g.PortToPeer(b, a); got != 0 {
		t.Errorf("B->A port = %d, want 0", got)
	}
	if got := g.PortToPeer(b, c); got != -1 {
		t.Errorf("B->C port = %d, want -1", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestFailAndRestoreLink(t *testing.T) {
	g := New()
	a := g.AddNode("A", KindSwitch, -1)
	b := g.AddNode("B", KindSwitch, -1)
	c := g.AddNode("C", KindSwitch, -1)
	g.Connect(a, b)
	g.Connect(a, c)

	if n := g.Neighbors(a, nil); len(n) != 2 {
		t.Fatalf("neighbors before failure = %v", n)
	}
	if !g.FailLink(a, b) {
		t.Fatal("FailLink(a,b) = false")
	}
	n := g.Neighbors(a, nil)
	if len(n) != 1 || n[0] != c {
		t.Fatalf("neighbors after failure = %v, want [C]", n)
	}
	if g.Degree(a) != 1 {
		t.Errorf("Degree(a) = %d, want 1", g.Degree(a))
	}
	if got := len(g.FailedLinks()); got != 1 {
		t.Errorf("FailedLinks = %d, want 1", got)
	}
	// Port lookup still works on failed adjacency.
	if got := g.PortToPeer(a, b); got != 0 {
		t.Errorf("PortToPeer over failed link = %d, want 0", got)
	}
	if !g.RestoreLink(a, b) {
		t.Fatal("RestoreLink = false")
	}
	if n := g.Neighbors(a, nil); len(n) != 2 {
		t.Fatalf("neighbors after restore = %v", n)
	}
	if g.FailLink(b, c) {
		t.Error("FailLink on non-adjacent nodes should return false")
	}
}

func TestHealthyPorts(t *testing.T) {
	g := New()
	a := g.AddNode("A", KindSwitch, -1)
	b := g.AddNode("B", KindSwitch, -1)
	c := g.AddNode("C", KindSwitch, -1)
	g.Connect(a, b)
	g.Connect(a, c)
	g.FailLink(a, b)
	got := g.HealthyPorts(a, nil)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("HealthyPorts = %v, want [1]", got)
	}
}

func TestHostToR(t *testing.T) {
	g := New()
	tor := g.AddNode("T1", KindToR, 1)
	h := g.AddNode("H1", KindHost, 0)
	g.Connect(h, tor)
	if got := g.HostToR(h); got != tor {
		t.Fatalf("HostToR = %d, want %d", got, tor)
	}
}

func TestHostToRPanicsOnSwitch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g := New()
	s := g.AddNode("S", KindSwitch, -1)
	g.HostToR(s)
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindHost: "host", KindToR: "tor", KindLeaf: "leaf", KindSpine: "spine",
		KindEdge: "edge", KindAgg: "agg", KindCore: "core", KindSwitch: "switch",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", uint8(k), got, want)
		}
	}
	if Kind(200).String() == "" {
		t.Error("unknown kind should still format")
	}
	if KindHost.IsSwitch() {
		t.Error("host is not a switch")
	}
	if !KindToR.IsSwitch() {
		t.Error("ToR is a switch")
	}
}

func TestRosters(t *testing.T) {
	c, err := NewClos(PaperTestbed())
	if err != nil {
		t.Fatal(err)
	}
	g := c.Graph
	if got := len(g.Switches()); got != 10 {
		t.Errorf("Switches = %d, want 10 (2 spine + 4 leaf + 4 tor)", got)
	}
	if got := len(g.Hosts()); got != 16 {
		t.Errorf("Hosts = %d, want 16", got)
	}
	if got := len(g.NodesOfKind(KindSpine)); got != 2 {
		t.Errorf("spines = %d, want 2", got)
	}
	if got := len(g.Nodes()); got != g.NumNodes() {
		t.Errorf("Nodes length mismatch")
	}
	names := g.SortedNames()
	if len(names) != g.NumNodes() {
		t.Fatalf("SortedNames len = %d", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted at %d: %q >= %q", i, names[i-1], names[i])
		}
	}
}

// Property: in any randomly wired graph, link endpoints and port tables
// stay mutually consistent (Validate passes) and PortToPeer is symmetric.
func TestRandomWiringConsistency(t *testing.T) {
	f := func(seed int64, n uint8, m uint8) bool {
		nodes := int(n%20) + 2
		links := int(m % 64)
		g := New()
		ids := make([]NodeID, nodes)
		for i := range ids {
			ids[i] = g.AddNode(nodeName(i), KindSwitch, -1)
		}
		r := newSplitMix(uint64(seed))
		for i := 0; i < links; i++ {
			a := int(r.next() % uint64(nodes))
			b := int(r.next() % uint64(nodes))
			if a == b {
				continue
			}
			g.Connect(ids[a], ids[b])
		}
		if err := g.Validate(); err != nil {
			t.Logf("Validate: %v", err)
			return false
		}
		for li := 0; li < g.NumLinks(); li++ {
			l := g.Link(LinkID(li))
			pa := g.Port(g.PortOn(l.A, l.APort))
			pb := g.Port(g.PortOn(l.B, l.BPort))
			if pa.Peer != l.B || pb.Peer != l.A {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func nodeName(i int) string {
	return "N" + string(rune('A'+i/10)) + string(rune('0'+i%10))
}

// splitMix is a tiny deterministic RNG for property tests, avoiding any
// dependence on math/rand ordering.
type splitMix struct{ s uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{s: seed} }

func (r *splitMix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// TestPortToPeerNamesOneLink: for every adjacent pair, PortToPeer in the
// two directions names the two ends of one link — the pair's first — so
// FarEnd of one side's port is the other side's. Parallel links connected
// in either order, and a failed first link, must not move it.
func TestPortToPeerNamesOneLink(t *testing.T) {
	g := New()
	a := g.AddNode("A", KindSwitch, -1)
	b := g.AddNode("B", KindSwitch, -1)
	c := g.AddNode("C", KindSwitch, -1)
	h := g.AddNode("H", KindHost, 0)
	g.Connect(a, c)
	ab := g.Connect(a, b)
	g.Connect(b, a) // parallel, the other way round
	g.Connect(c, b)
	g.Connect(a, b)
	g.Connect(b, c)
	g.Connect(h, a)
	g.FailLink(a, b) // fails the first A-B link only
	if !g.Link(ab).Failed {
		t.Fatal("FailLink(A, B) did not fail the pair's first link")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for _, n := range g.Nodes() {
		for num := 0; num < g.PortCount(n); num++ {
			peer := g.Port(g.PortOn(n, num)).Peer
			here, there := g.PortToPeer(n, peer), g.PortToPeer(peer, n)
			if here > num {
				t.Errorf("%s port %d faces %s but PortToPeer = %d", g.Node(n).Name, num, g.Node(peer).Name, here)
			}
			if far := g.FarEnd(g.PortOn(n, here)); far != g.PortOn(peer, there) {
				t.Errorf("%s→%s: FarEnd(port %d) = %d, want %s's port %d (%d)",
					g.Node(n).Name, g.Node(peer).Name, here, far, g.Node(peer).Name, there, g.PortOn(peer, there))
			}
		}
	}
	if l := g.LinkBetween(b, a); l == nil || l.ID != ab {
		t.Errorf("LinkBetween(B, A) = %v, want the first link %d", l, ab)
	}
	lone := g.AddNode("L", KindSwitch, -1)
	g.addPort(lone) // an unattached port
	if far := g.FarEnd(g.PortOn(lone, 0)); far != InvalidPort {
		t.Errorf("FarEnd of an unattached port = %d", far)
	}
}

// TestValidateRejectsSkewedPeerIndex corrupts the pair index the way a
// Connect that recorded later parallel links would: pointing one side, or
// both, at the second A-B link. Validate must reject both.
func TestValidateRejectsSkewedPeerIndex(t *testing.T) {
	build := func() (*Graph, NodeID, NodeID, LinkID) {
		g := New()
		a := g.AddNode("A", KindSwitch, -1)
		b := g.AddNode("B", KindSwitch, -1)
		g.Connect(a, b)
		second := g.Connect(b, a)
		return g, a, b, second
	}
	for _, sides := range []string{"A only", "B only", "both"} {
		g, a, b, second := build()
		l := g.Link(second)
		if sides != "B only" {
			g.peerPort[peerKey(a, b)] = g.PortOn(a, l.BPort)
		}
		if sides != "A only" {
			g.peerPort[peerKey(b, a)] = g.PortOn(b, l.APort)
		}
		if err := g.Validate(); err == nil {
			t.Errorf("index skewed to the second link on %s: Validate passed", sides)
		}
	}
}
