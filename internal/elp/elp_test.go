package elp

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/routing"
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

func TestSetAddValidation(t *testing.T) {
	c := paperClos(t)
	g := c.Graph
	n := func(name string) topology.NodeID { return g.MustLookup(name) }
	s := NewSet()

	if err := s.Add(g, routing.Path{}); err == nil {
		t.Error("empty path accepted")
	}
	if err := s.Add(g, routing.Path{n("T1"), n("L1"), n("T1")}); err == nil {
		t.Error("looping path accepted")
	}
	if err := s.Add(g, routing.Path{n("T1"), n("S1")}); err == nil {
		t.Error("non-adjacent path accepted")
	}
	p := routing.Path{n("T1"), n("L1"), n("S1")}
	if err := s.Add(g, p); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(g, p); err != nil {
		t.Fatal("duplicate add should be a no-op, not an error")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
	if !s.Contains(p) {
		t.Error("Contains failed")
	}
	if s.LongestHops() != 2 {
		t.Errorf("LongestHops = %d", s.LongestHops())
	}
	if err := s.AddAll(g, []routing.Path{{n("T2"), n("L1")}, {n("T2"), n("L2")}}); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
	if err := s.AddAll(g, []routing.Path{{n("T1"), n("S1")}}); err == nil {
		t.Error("AddAll should surface validation errors")
	}
}

func TestMustAddPanics(t *testing.T) {
	c := paperClos(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSet().MustAdd(c.Graph, routing.Path{})
}

func TestUpDownAllCounts(t *testing.T) {
	c := paperClos(t)
	g := c.Graph
	s := UpDownAll(g, c.ToRs)
	// Ordered ToR pairs: same-pod pairs (4) x 2 paths + cross-pod pairs (8) x 8 paths.
	want := 4*2 + 8*8
	if s.Len() != want {
		t.Fatalf("UpDownAll paths = %d, want %d", s.Len(), want)
	}
	for _, p := range s.Paths() {
		if !p.ValleyFree(g) {
			t.Errorf("path %s not valley-free", p.String(g))
		}
	}
	if s.LongestHops() != 4 {
		t.Errorf("LongestHops = %d, want 4", s.LongestHops())
	}
}

func TestKBounceZeroEqualsUpDown(t *testing.T) {
	c := paperClos(t)
	g := c.Graph
	ud := UpDownAll(g, c.ToRs)
	kb := KBounce(g, c.ToRs, 0, nil)
	if kb.Len() != ud.Len() {
		t.Fatalf("KBounce(0) = %d paths, UpDownAll = %d", kb.Len(), ud.Len())
	}
	for _, p := range ud.Paths() {
		if !kb.Contains(p) {
			t.Errorf("missing path %s", p.String(g))
		}
	}
}

func TestKBounceOneContainsFig3Paths(t *testing.T) {
	c := paperClos(t)
	g := c.Graph
	n := func(name string) topology.NodeID { return g.MustLookup(name) }
	s := KBounce(g, c.ToRs, 1, nil)

	// The green flow's bounced path from Fig 3:
	// T3 -> L3 -> S2 -> L1 (bounce) -> S1 -> L2 -> T1.
	green := routing.Path{n("T3"), n("L3"), n("S2"), n("L1"), n("S1"), n("L2"), n("T1")}
	if !s.Contains(green) {
		t.Errorf("1-bounce ELP missing green path %s", green.String(g))
	}
	// The blue flow's bounced path:
	// T1 -> L1 -> S1 -> L3 (bounce) -> S2 -> L4 -> T4.
	blue := routing.Path{n("T1"), n("L1"), n("S1"), n("L3"), n("S2"), n("L4"), n("T4")}
	if !s.Contains(blue) {
		t.Errorf("1-bounce ELP missing blue path %s", blue.String(g))
	}
	// All paths have at most one bounce and are loop-free.
	for _, p := range s.Paths() {
		if b := p.Bounces(g); b > 1 {
			t.Errorf("path %s has %d bounces", p.String(g), b)
		}
		if !p.LoopFree() {
			t.Errorf("path %s loops", p.String(g))
		}
	}
	// Strictly more paths than 0-bounce.
	if s.Len() <= UpDownAll(g, c.ToRs).Len() {
		t.Error("1-bounce ELP should be strictly larger than up-down ELP")
	}
}

func TestKBounceBouncesBounded(t *testing.T) {
	c := paperClos(t)
	g := c.Graph
	for k := 0; k <= 2; k++ {
		s := KBounce(g, c.ToRs, k, nil)
		maxB := 0
		for _, p := range s.Paths() {
			if b := p.Bounces(g); b > maxB {
				maxB = b
			}
		}
		if maxB > k {
			t.Errorf("k=%d: found path with %d bounces", k, maxB)
		}
		if k > 0 && maxB != k {
			t.Errorf("k=%d: expected some path with exactly %d bounces, max was %d", k, k, maxB)
		}
	}
}

func TestShortestAll(t *testing.T) {
	j, err := topology.NewJellyfish(topology.JellyfishConfig{Switches: 12, Ports: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	g := j.Graph
	s := ShortestAll(g, j.Switches)
	want := 12 * 11
	if s.Len() != want {
		t.Fatalf("ShortestAll = %d paths, want %d", s.Len(), want)
	}
	for _, p := range s.Paths() {
		if !p.LoopFree() || !p.Valid(g) {
			t.Errorf("bad path %s", p.String(g))
		}
		if d := routing.Distance(g, p.Src(), p.Dst()); p.Hops() != d {
			t.Errorf("path %s is not shortest (%d vs %d)", p.String(g), p.Hops(), d)
		}
	}
}

func TestShortestAllECMP(t *testing.T) {
	c := paperClos(t)
	g := c.Graph
	s := ShortestAllECMP(g, c.ToRs, 0)
	// Same-pod pairs have 2 shortest paths, cross-pod 8.
	want := 4*2 + 8*8
	if s.Len() != want {
		t.Fatalf("ShortestAllECMP = %d, want %d", s.Len(), want)
	}
	capped := ShortestAllECMP(g, c.ToRs, 1)
	if capped.Len() != 12 {
		t.Errorf("capped = %d, want 12 (one per ordered pair)", capped.Len())
	}
}

func TestRandomPaths(t *testing.T) {
	j, err := topology.NewJellyfish(topology.JellyfishConfig{Switches: 20, Ports: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	g := j.Graph
	s := RandomPaths(g, j.Switches, 100, 6, 11)
	if s.Len() != 100 {
		t.Fatalf("RandomPaths = %d, want 100", s.Len())
	}
	for _, p := range s.Paths() {
		if !p.LoopFree() || !p.Valid(g) {
			t.Errorf("bad random path %s", p.String(g))
		}
		if p.Hops() > 6 {
			t.Errorf("path too long: %s", p.String(g))
		}
	}
	// Deterministic per seed.
	s2 := RandomPaths(g, j.Switches, 100, 6, 11)
	for i, p := range s.Paths() {
		if !p.Equal(s2.Paths()[i]) {
			t.Fatal("RandomPaths not deterministic")
		}
	}
	// Different seeds differ.
	s3 := RandomPaths(g, j.Switches, 100, 6, 12)
	same := true
	for i, p := range s.Paths() {
		if !p.Equal(s3.Paths()[i]) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical path sets")
	}
}

func TestAddRandomPathsExtends(t *testing.T) {
	j, err := topology.NewJellyfish(topology.JellyfishConfig{Switches: 15, Ports: 6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	s := ShortestAll(j.Graph, j.Switches)
	before := s.Len()
	AddRandomPaths(s, j.Graph, j.Switches, 50, 6, 21)
	if s.Len() != before+50 {
		t.Errorf("extended set = %d, want %d", s.Len(), before+50)
	}
}

// Property: KBounce output on random small Clos configs contains only
// loop-free valid paths within the bounce budget.
func TestKBounceProperty(t *testing.T) {
	f := func(pods, tors, leafs, spines uint8, k uint8) bool {
		cfg := topology.ClosConfig{
			Pods:        int(pods%2) + 2,
			ToRsPerPod:  int(tors%2) + 1,
			LeafsPerPod: int(leafs%2) + 1,
			Spines:      int(spines%2) + 1,
		}
		c, err := topology.NewClos(cfg)
		if err != nil {
			return false
		}
		kk := int(k % 2)
		s := KBounce(c.Graph, c.ToRs, kk, nil)
		for _, p := range s.Paths() {
			if !p.LoopFree() || !p.Valid(c.Graph) || p.Bounces(c.Graph) > kk {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestSetAddZeroAllocAfterReserve is the allocation gate on the ELP hot
// loop: once reserved, adding a path — new or duplicate — and probing for
// one build no key and grow nothing.
func TestSetAddZeroAllocAfterReserve(t *testing.T) {
	j, err := topology.NewJellyfish(topology.JellyfishConfig{Switches: 30, Ports: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	paths := ShortestAll(j.Graph, j.Switches).Paths()
	s := NewSet()
	s.Reserve(len(paths))
	i := 0
	allocs := testing.AllocsPerRun(2*len(paths)-1, func() {
		p := paths[i%len(paths)] // second lap: every Add is a duplicate
		i++
		if err := s.Add(j.Graph, p); err != nil || !s.Contains(p) {
			t.Fatalf("Add(%v): err=%v", p, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Set.Add allocates %.2f times per path after Reserve, want 0", allocs)
	}
	if s.Len() != len(paths) {
		t.Fatalf("set holds %d paths, want %d", s.Len(), len(paths))
	}
}

// TestKBounceFromMatchesFilteredKBounce pins the two properties pod
// stamping relies on: enumerating a sub-rectangle of ordered pairs yields
// exactly those pairs' paths from the full enumeration, in the same
// order; and KBounce is the full square.
func TestKBounceFromMatchesFilteredKBounce(t *testing.T) {
	clos, err := topology.NewClos(topology.ClosConfig{Pods: 4, ToRsPerPod: 2, LeafsPerPod: 2, Spines: 8, HostsPerToR: 2})
	if err != nil {
		t.Fatal(err)
	}
	ft, err := topology.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	broken, err := topology.NewClos(topology.ClosConfig{Pods: 3, ToRsPerPod: 2, LeafsPerPod: 2, Spines: 2, HostsPerToR: 1})
	if err != nil {
		t.Fatal(err)
	}
	broken.Graph.FailLink(broken.Leaves[0], broken.Spines[0])
	broken.Graph.FailLink(broken.ToRs[3], broken.Leaves[3])

	for _, f := range []struct {
		name string
		g    *topology.Graph
		eps  []topology.NodeID
	}{
		{"clos4x8", clos.Graph, clos.ToRs},
		{"fattree4", ft.Graph, ft.Edges},
		{"clos3-failed-links", broken.Graph, broken.ToRs},
	} {
		for k := 0; k <= 1; k++ {
			all := KBounce(f.g, f.eps, k, nil).Paths()
			if len(all) == 0 {
				t.Fatalf("%s k=%d: empty enumeration", f.name, k)
			}
			requireSamePaths(t, f.name+" square", KBounceFrom(f.g, f.eps, f.eps, k, nil).Paths(), all)

			// Sources from the front of the roster, destinations an
			// overlapping, longer prefix — the stamper's shape — and a
			// disjoint pair of lists.
			half := len(f.eps) / 2
			for _, r := range [][2][]topology.NodeID{
				{f.eps[:2], f.eps[:half]},
				{f.eps[half:], f.eps[:2]},
			} {
				srcs, dsts := r[0], r[1]
				var want []routing.Path
				for _, p := range all {
					if slices.Contains(srcs, p.Src()) && slices.Contains(dsts, p.Dst()) {
						want = append(want, p)
					}
				}
				if len(want) == 0 {
					t.Fatalf("%s k=%d: filter kept nothing", f.name, k)
				}
				requireSamePaths(t, f.name+" rectangle", KBounceFrom(f.g, srcs, dsts, k, nil).Paths(), want)
			}

			// One enumerator, two blocks back to back — how the pod stamper
			// lays out its buckets: the list is block one then block two,
			// and the validated set is views of exactly that list.
			e := NewKBounceEnumerator(f.g, k, nil)
			e.From(f.eps[:2], f.eps[:half])
			n1 := e.List.Len()
			e.From(f.eps[:2], f.eps[half:])
			want := append(KBounceFrom(f.g, f.eps[:2], f.eps[:half], k, nil).Paths(),
				KBounceFrom(f.g, f.eps[:2], f.eps[half:], k, nil).Paths()...)
			if n1 == 0 || n1 == e.List.Len() {
				t.Fatalf("%s k=%d: a block is empty (%d of %d)", f.name, k, n1, e.List.Len())
			}
			requireSamePaths(t, f.name+" two blocks", e.Set().Paths(), want)
			for i, p := range want {
				if !e.List.At(i).Equal(p) {
					t.Fatalf("%s two blocks: List.At(%d) = %v, want %v", f.name, i, e.List.At(i), p)
				}
			}
			if got := e.List.Ends[len(want)-1]; got != len(e.List.Nodes) {
				t.Fatalf("%s two blocks: last end %d, %d nodes", f.name, got, len(e.List.Nodes))
			}
		}
	}
}

func requireSamePaths(t *testing.T, what string, got, want []routing.Path) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d paths, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: path %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}
