package routing

import (
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

func paperClos(t *testing.T) *topology.Clos {
	t.Helper()
	c, err := topology.NewClos(topology.PaperTestbed())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPathHelpers(t *testing.T) {
	c := paperClos(t)
	g := c.Graph
	t1, l1, s1 := g.MustLookup("T1"), g.MustLookup("L1"), g.MustLookup("S1")
	p := Path{t1, l1, s1}
	if p.Hops() != 2 {
		t.Errorf("Hops = %d, want 2", p.Hops())
	}
	if p.Src() != t1 || p.Dst() != s1 {
		t.Error("Src/Dst wrong")
	}
	if !p.LoopFree() {
		t.Error("path should be loop-free")
	}
	if !p.Valid(g) {
		t.Error("path should be valid")
	}
	if !(Path{t1, l1, t1}).Valid(g) {
		t.Error("repeated adjacency is still valid")
	}
	if (Path{t1, l1, t1}).LoopFree() {
		t.Error("loop not detected")
	}
	if (Path{t1, s1}).Valid(g) {
		t.Error("T1-S1 are not adjacent")
	}
	if got := p.String(g); got != "T1>L1>S1" {
		t.Errorf("String = %q", got)
	}
	var empty Path
	if empty.Hops() != 0 || empty.Src() != topology.InvalidNode || empty.Dst() != topology.InvalidNode {
		t.Error("empty path accessors wrong")
	}
	q := Path{t1, l1, s1}
	if !p.Equal(q) {
		t.Error("Equal failed")
	}
	if p.Equal(Path{t1, l1}) {
		t.Error("Equal on different lengths")
	}
	if p.Key() == (Path{t1, l1}).Key() {
		t.Error("keys should differ")
	}
}

func TestPathBounces(t *testing.T) {
	c := paperClos(t)
	g := c.Graph
	n := func(name string) topology.NodeID { return g.MustLookup(name) }
	cases := []struct {
		path Path
		want int
	}{
		{Path{n("T1"), n("L1"), n("S1"), n("L3"), n("T3")}, 0},                   // up-down
		{Path{n("T3"), n("L3"), n("S1"), n("L1"), n("S2"), n("L2"), n("T1")}, 1}, // 1 bounce at L1
		{Path{n("T1"), n("L1"), n("T2"), n("L2"), n("T1")}, 1},                   // bounce at T2 (not loop-free but layered)
		{Path{n("T1"), n("L1"), n("S1"), n("L1")}, 0},                            // down only at end
		{Path{n("H1"), n("T1"), n("L1"), n("S1"), n("L3"), n("T3"), n("H9")}, 0}, // host to host
	}
	for i, cse := range cases {
		if got := cse.path.Bounces(g); got != cse.want {
			t.Errorf("case %d (%s): Bounces = %d, want %d", i, cse.path.String(g), got, cse.want)
		}
		if cse.path.ValleyFree(g) != (cse.want == 0) {
			t.Errorf("case %d: ValleyFree inconsistent", i)
		}
	}
}

func TestShortestPath(t *testing.T) {
	c := paperClos(t)
	g := c.Graph
	n := func(name string) topology.NodeID { return g.MustLookup(name) }

	// Same pod: T1 -> T2 via a leaf, 2 hops.
	p := ShortestPath(g, n("T1"), n("T2"))
	if p.Hops() != 2 {
		t.Errorf("T1->T2 hops = %d, want 2 (%s)", p.Hops(), p.String(g))
	}
	// Cross pod: T1 -> T3 via leaf, spine, leaf: 4 hops.
	p = ShortestPath(g, n("T1"), n("T3"))
	if p.Hops() != 4 {
		t.Errorf("T1->T3 hops = %d, want 4 (%s)", p.Hops(), p.String(g))
	}
	// Host to host cross-pod: 6 hops.
	p = ShortestPath(g, n("H1"), n("H9"))
	if p.Hops() != 6 {
		t.Errorf("H1->H9 hops = %d, want 6 (%s)", p.Hops(), p.String(g))
	}
	if got := Distance(g, n("H1"), n("H9")); got != 6 {
		t.Errorf("Distance = %d, want 6", got)
	}
	if got := Distance(g, n("T1"), n("T1")); got != 0 {
		t.Errorf("Distance self = %d", got)
	}
	// Hosts are not transit: H1 and H2 share T1, distance 2 not via each other.
	p = ShortestPath(g, n("H1"), n("H2"))
	if p.Hops() != 2 || p[1] != n("T1") {
		t.Errorf("H1->H2 = %s", p.String(g))
	}
	if p := ShortestPath(g, n("T1"), n("T1")); p.Hops() != 0 {
		t.Error("self path")
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := topology.New()
	a := g.AddNode("A", topology.KindSwitch, -1)
	b := g.AddNode("B", topology.KindSwitch, -1)
	if p := ShortestPath(g, a, b); p != nil {
		t.Errorf("expected nil path, got %v", p)
	}
	if d := Distance(g, a, b); d != -1 {
		t.Errorf("Distance = %d, want -1", d)
	}
}

func TestAllShortestPaths(t *testing.T) {
	c := paperClos(t)
	g := c.Graph
	n := func(name string) topology.NodeID { return g.MustLookup(name) }
	// T1->T2: via L1 or L2, exactly 2 paths.
	ps := AllShortestPaths(g, n("T1"), n("T2"), 0)
	if len(ps) != 2 {
		t.Fatalf("T1->T2 shortest paths = %d, want 2", len(ps))
	}
	// T1->T3: 2 leaves x 2 spines x 2 leaves = 8 paths of 4 hops.
	ps = AllShortestPaths(g, n("T1"), n("T3"), 0)
	if len(ps) != 8 {
		t.Fatalf("T1->T3 shortest paths = %d, want 8", len(ps))
	}
	for _, p := range ps {
		if p.Hops() != 4 {
			t.Errorf("path %s has %d hops", p.String(g), p.Hops())
		}
		if !p.LoopFree() || !p.Valid(g) {
			t.Errorf("path %s invalid", p.String(g))
		}
	}
	// Limit respected.
	ps = AllShortestPaths(g, n("T1"), n("T3"), 3)
	if len(ps) != 3 {
		t.Errorf("limited paths = %d, want 3", len(ps))
	}
	if got := AllShortestPaths(g, n("T1"), n("T1"), 0); len(got) != 1 || got[0].Hops() != 0 {
		t.Error("self all-shortest wrong")
	}
}

func TestEccentricity(t *testing.T) {
	c := paperClos(t)
	g := c.Graph
	// From a spine, the farthest switch is a ToR: 2 hops.
	if got := Eccentricity(g, g.MustLookup("S1")); got != 2 {
		t.Errorf("spine eccentricity = %d, want 2", got)
	}
	// From a ToR, farthest is another pod's ToR: 4 hops.
	if got := Eccentricity(g, g.MustLookup("T1")); got != 4 {
		t.Errorf("tor eccentricity = %d, want 4", got)
	}
}

func TestUpDownPaths(t *testing.T) {
	c := paperClos(t)
	g := c.Graph
	n := func(name string) topology.NodeID { return g.MustLookup(name) }

	ps := UpDownPaths(g, n("T1"), n("T3"), 0)
	if len(ps) != 8 {
		t.Fatalf("up-down T1->T3 = %d paths, want 8", len(ps))
	}
	for _, p := range ps {
		if !p.ValleyFree(g) {
			t.Errorf("path %s not valley-free", p.String(g))
		}
		if p.Hops() != 4 {
			t.Errorf("path %s hops = %d", p.String(g), p.Hops())
		}
	}
	// Same pod.
	ps = UpDownPaths(g, n("T1"), n("T2"), 0)
	if len(ps) != 2 {
		t.Fatalf("up-down T1->T2 = %d paths, want 2", len(ps))
	}
	// Downward only: S1 -> T1 via L1 or L2.
	ps = UpDownPaths(g, n("S1"), n("T1"), 0)
	if len(ps) != 2 {
		t.Fatalf("up-down S1->T1 = %d paths, want 2", len(ps))
	}
	for _, p := range ps {
		if p.Hops() != 2 {
			t.Errorf("S1->T1 path %s", p.String(g))
		}
	}
	// Upward only: T1 -> S1.
	ps = UpDownPaths(g, n("T1"), n("S1"), 0)
	if len(ps) != 2 {
		t.Fatalf("up-down T1->S1 = %d paths, want 2", len(ps))
	}
	if got := UpDownPaths(g, n("T1"), n("T1"), 0); len(got) != 1 {
		t.Error("self up-down")
	}
	// Limit respected.
	if got := UpDownPaths(g, n("T1"), n("T3"), 2); len(got) != 2 {
		t.Errorf("limit ignored: %d", len(got))
	}
}

func TestUpDownPathsAfterFailure(t *testing.T) {
	c := paperClos(t)
	g := c.Graph
	n := func(name string) topology.NodeID { return g.MustLookup(name) }
	// Fail L1-T1: up-down T3 -> T1 must avoid L1 on the down leg.
	g.FailLink(n("L1"), n("T1"))
	ps := UpDownPaths(g, n("T3"), n("T1"), 0)
	if len(ps) != 4 {
		t.Fatalf("after failure, up-down T3->T1 = %d paths, want 4", len(ps))
	}
	for _, p := range ps {
		for _, node := range p[1 : len(p)-1] {
			if node == n("L1") {
				// L1 can only appear if the path enters it downward and
				// leaves downward to T1 — impossible now.
				t.Errorf("path %s uses L1 despite failed L1-T1", p.String(g))
			}
		}
	}
}

func TestUpDownNoValleyFreeRoute(t *testing.T) {
	// Two ToRs in different pods with no spine: no valley-free route.
	g := topology.New()
	t1 := g.AddNode("T1", topology.KindToR, 1)
	t2 := g.AddNode("T2", topology.KindToR, 1)
	l1 := g.AddNode("L1", topology.KindLeaf, 2)
	l2 := g.AddNode("L2", topology.KindLeaf, 2)
	g.Connect(t1, l1)
	g.Connect(t2, l2)
	if ps := UpDownPaths(g, t1, t2, 0); ps != nil {
		t.Errorf("expected no valley-free route, got %d", len(ps))
	}
}

// Property: the up-down paths of a pair share one hop count and each is
// valley-free and loop-free (that the count is minimal is the brute-force
// differential's job, TestSegmentsMatchBruteForce).
func TestUpDownPathsProperty(t *testing.T) {
	cfg := topology.ClosConfig{Pods: 3, ToRsPerPod: 2, LeafsPerPod: 2, Spines: 3, HostsPerToR: 1}
	c, err := topology.NewClos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := c.Graph
	f := func(ai, bi uint8) bool {
		a := c.ToRs[int(ai)%len(c.ToRs)]
		b := c.ToRs[int(bi)%len(c.ToRs)]
		if a == b {
			return true
		}
		ps := UpDownPaths(g, a, b, 0)
		for _, p := range ps {
			if p.Hops() != ps[0].Hops() || !p.ValleyFree(g) || !p.LoopFree() || !p.Valid(g) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
