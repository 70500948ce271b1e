package topology

import (
	"testing"
)

func TestPaperTestbedShape(t *testing.T) {
	c, err := NewClos(PaperTestbed())
	if err != nil {
		t.Fatal(err)
	}
	g := c.Graph
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(c.Spines) != 2 || len(c.Leaves) != 4 || len(c.ToRs) != 4 || len(c.Hosts) != 16 {
		t.Fatalf("rosters: %d spines %d leaves %d tors %d hosts",
			len(c.Spines), len(c.Leaves), len(c.ToRs), len(c.Hosts))
	}
	// Every leaf connects to every spine.
	for _, l := range c.Leaves {
		for _, s := range c.Spines {
			if g.LinkBetween(l, s) == nil {
				t.Errorf("leaf %s not connected to spine %s", g.Node(l).Name, g.Node(s).Name)
			}
		}
	}
	// T1 (pod 0) connects to L1, L2 but not L3, L4.
	t1 := g.MustLookup("T1")
	for _, name := range []string{"L1", "L2"} {
		if g.LinkBetween(t1, g.MustLookup(name)) == nil {
			t.Errorf("T1 not connected to %s", name)
		}
	}
	for _, name := range []string{"L3", "L4"} {
		if g.LinkBetween(t1, g.MustLookup(name)) != nil {
			t.Errorf("T1 wrongly connected to %s", name)
		}
	}
	// ToRs never connect to spines directly.
	for _, tor := range c.ToRs {
		for _, s := range c.Spines {
			if g.LinkBetween(tor, s) != nil {
				t.Errorf("ToR %s directly connected to spine", g.Node(tor).Name)
			}
		}
	}
	// Hosts are 4 per ToR, attached to their ToR.
	h1 := g.MustLookup("H1")
	if g.LinkBetween(h1, t1) == nil || g.PortCount(h1) != 1 {
		t.Errorf("H1 does not attach to T1 alone")
	}
}

func TestClosConfigValidation(t *testing.T) {
	bad := []ClosConfig{
		{Pods: 0, ToRsPerPod: 1, LeafsPerPod: 1, Spines: 1},
		{Pods: 1, ToRsPerPod: 0, LeafsPerPod: 1, Spines: 1},
		{Pods: 1, ToRsPerPod: 1, LeafsPerPod: 0, Spines: 1},
		{Pods: 1, ToRsPerPod: 1, LeafsPerPod: 1, Spines: 0},
		{Pods: 1, ToRsPerPod: 1, LeafsPerPod: 1, Spines: 1, HostsPerToR: -1},
	}
	for i, cfg := range bad {
		if _, err := NewClos(cfg); err == nil {
			t.Errorf("case %d: expected error for %+v", i, cfg)
		}
	}
}

func TestClosScaling(t *testing.T) {
	cfg := ClosConfig{Pods: 4, ToRsPerPod: 8, LeafsPerPod: 4, Spines: 16, HostsPerToR: 16}
	c, err := NewClos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := c.Graph
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	wantSwitches := 16 + 4*4 + 4*8
	if got := len(g.Switches()); got != wantSwitches {
		t.Errorf("switches = %d, want %d", got, wantSwitches)
	}
	wantHosts := 4 * 8 * 16
	if got := len(g.Hosts()); got != wantHosts {
		t.Errorf("hosts = %d, want %d", got, wantHosts)
	}
	wantLinks := 4*4*16 + 4*8*4 + wantHosts
	if got := g.NumLinks(); got != wantLinks {
		t.Errorf("links = %d, want %d", got, wantLinks)
	}
}

func TestFatTreeShape(t *testing.T) {
	for _, k := range []int{2, 4, 6, 8} {
		ft, err := NewFatTree(k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		g := ft.Graph
		if err := g.Validate(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		half := k / 2
		if len(ft.Cores) != half*half {
			t.Errorf("k=%d: cores = %d, want %d", k, len(ft.Cores), half*half)
		}
		if len(ft.Aggs) != k*half || len(ft.Edges) != k*half {
			t.Errorf("k=%d: aggs=%d edges=%d, want %d each", k, len(ft.Aggs), len(ft.Edges), k*half)
		}
		if len(ft.Hosts) != k*half*half {
			t.Errorf("k=%d: hosts = %d, want %d", k, len(ft.Hosts), k*half*half)
		}
		// Every switch has exactly k ports in a k-ary fat-tree
		// (cores: k pods; aggs: k/2 up + k/2 down; edges: k/2 up + k/2 hosts).
		for _, sw := range g.Switches() {
			if got := g.PortCount(sw); got != k {
				t.Errorf("k=%d: switch %s has %d ports, want %d", k, g.Node(sw).Name, got, k)
			}
		}
		// Each core connects to exactly one agg per pod.
		for _, c := range ft.Cores {
			if got := len(g.Neighbors(c, nil)); got != k {
				t.Errorf("k=%d: core degree = %d, want %d", k, got, k)
			}
		}
	}
	if _, err := NewFatTree(3); err == nil {
		t.Error("expected error for odd k")
	}
	if _, err := NewFatTree(0); err == nil {
		t.Error("expected error for k=0")
	}
}

func TestBCubeShape(t *testing.T) {
	cases := []struct{ n, k int }{{2, 1}, {4, 1}, {2, 2}, {4, 2}, {8, 1}}
	for _, c := range cases {
		b, err := NewBCube(c.n, c.k)
		if err != nil {
			t.Fatalf("BCube(%d,%d): %v", c.n, c.k, err)
		}
		g := b.Graph
		if err := g.Validate(); err != nil {
			t.Fatalf("BCube(%d,%d): %v", c.n, c.k, err)
		}
		wantServers := 1
		for i := 0; i <= c.k; i++ {
			wantServers *= c.n
		}
		if len(b.Servers) != wantServers {
			t.Errorf("BCube(%d,%d): servers = %d, want %d", c.n, c.k, len(b.Servers), wantServers)
		}
		if len(b.Switches) != c.k+1 {
			t.Fatalf("BCube(%d,%d): levels = %d, want %d", c.n, c.k, len(b.Switches), c.k+1)
		}
		levelOf := map[NodeID]int{}
		for l, level := range b.Switches {
			if len(level) != wantServers/c.n {
				t.Errorf("BCube(%d,%d): level %d has %d switches, want %d",
					c.n, c.k, l, len(level), wantServers/c.n)
			}
			for _, sw := range level {
				levelOf[sw] = l
				if got := g.PortCount(sw); got != c.n {
					t.Errorf("BCube(%d,%d): switch %s has %d ports, want %d",
						c.n, c.k, g.Node(sw).Name, got, c.n)
				}
			}
		}
		// Every server has exactly k+1 ports, one per level.
		for _, s := range b.Servers {
			if got := g.PortCount(s); got != c.k+1 {
				t.Errorf("BCube(%d,%d): server %s has %d ports, want %d",
					c.n, c.k, g.Node(s).Name, got, c.k+1)
			}
		}
		// Two servers share a switch iff their addresses differ in exactly
		// the digit of that switch's level. Spot check neighbors of server 0.
		s0 := b.Servers[0]
		var nb []NodeID
		nb = g.Neighbors(s0, nb)
		for _, sw := range nb {
			lvl, ok := levelOf[sw]
			if !ok {
				t.Fatalf("server neighbor %s is not a switch", g.Node(sw).Name)
			}
			var swNb []NodeID
			swNb = g.Neighbors(sw, swNb)
			for _, peer := range swNb {
				no, _ := b.ServerNumber(peer)
				for d := 0; d <= c.k; d++ {
					if d == lvl {
						continue
					}
					if b.Digit(no, d) != b.Digit(0, d) {
						t.Errorf("BCube(%d,%d): level-%d switch links servers differing in digit %d",
							c.n, c.k, lvl, d)
					}
				}
			}
		}
	}
	if _, err := NewBCube(1, 1); err == nil {
		t.Error("expected error for n=1")
	}
	if _, err := NewBCube(2, -1); err == nil {
		t.Error("expected error for k=-1")
	}
}

func TestBCubeDigit(t *testing.T) {
	b, err := NewBCube(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Server 7 in base 4 is 13: digit0 = 3, digit1 = 1.
	if d := b.Digit(7, 0); d != 3 {
		t.Errorf("Digit(7,0) = %d, want 3", d)
	}
	if d := b.Digit(7, 1); d != 1 {
		t.Errorf("Digit(7,1) = %d, want 1", d)
	}
}

func TestJellyfishShape(t *testing.T) {
	cases := []JellyfishConfig{
		{Switches: 10, Ports: 8, Seed: 1},
		{Switches: 50, Ports: 12, Seed: 7},
		{Switches: 200, Ports: 24, Seed: 42},
	}
	for _, cfg := range cases {
		j, err := NewJellyfish(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		g := j.Graph
		if err := g.Validate(); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if len(j.Switches) != cfg.Switches {
			t.Errorf("%+v: switches = %d", cfg, len(j.Switches))
		}
		net := cfg.Ports / 2
		hostPorts := cfg.Ports - net
		if len(j.Hosts) != cfg.Switches*hostPorts {
			t.Errorf("%+v: hosts = %d, want %d", cfg, len(j.Hosts), cfg.Switches*hostPorts)
		}
		// Switch-to-switch degree is net-regular up to one odd leftover.
		deficit := 0
		for _, sw := range j.Switches {
			d := 0
			var nb []NodeID
			nb = g.Neighbors(sw, nb)
			for _, p := range nb {
				if g.Node(p).Kind.IsSwitch() {
					d++
				}
			}
			if d > net {
				t.Errorf("%+v: switch %s has net degree %d > %d", cfg, g.Node(sw).Name, d, net)
			}
			deficit += net - d
		}
		if deficit > 2 {
			t.Errorf("%+v: total net-degree deficit %d, want <= 2", cfg, deficit)
		}
	}
}

func TestJellyfishDeterministic(t *testing.T) {
	cfg := JellyfishConfig{Switches: 30, Ports: 10, Seed: 99}
	a, err := NewJellyfish(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewJellyfish(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.NumLinks() != b.Graph.NumLinks() {
		t.Fatalf("link counts differ: %d vs %d", a.Graph.NumLinks(), b.Graph.NumLinks())
	}
	for i := 0; i < a.Graph.NumLinks(); i++ {
		la, lb := a.Graph.Link(LinkID(i)), b.Graph.Link(LinkID(i))
		if la.A != lb.A || la.B != lb.B {
			t.Fatalf("link %d differs: %v vs %v", i, la, lb)
		}
	}
}

func TestJellyfishConfigValidation(t *testing.T) {
	bad := []JellyfishConfig{
		{Switches: 1, Ports: 8},
		{Switches: 10, Ports: 1},
		{Switches: 10, Ports: 8, NetPorts: 20},
		{Switches: 4, Ports: 8, NetPorts: 6}, // NetPorts >= Switches
	}
	for i, cfg := range bad {
		if _, err := NewJellyfish(cfg); err == nil {
			t.Errorf("case %d: expected error for %+v", i, cfg)
		}
	}
}
