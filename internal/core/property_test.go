package core

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/elp"
	"repro/internal/topology"
)

// randomPaths is a fresh set of count random loop-free paths.
func randomPaths(g *topology.Graph, endpoints []topology.NodeID, count, maxHops int, seed int64) *elp.Set {
	s := elp.NewSet()
	elp.AddRandomPaths(s, g, endpoints, count, maxHops, seed)
	return s
}

// Property: Synthesize on arbitrary random-path ELPs over Jellyfish
// topologies always produces a verified deadlock-free system with zero
// lossless violations — the paper's headline guarantee ("Once LP is given,
// Tagger guarantees that there will be no deadlock").
func TestSynthesizeAlwaysDeadlockFreeOnRandomELP(t *testing.T) {
	f := func(seed int64, nSw, nPaths uint8) bool {
		cfg := topology.JellyfishConfig{
			Switches: int(nSw%12) + 4,
			Ports:    6,
			Seed:     seed,
		}
		j, err := topology.NewJellyfish(cfg)
		if err != nil {
			t.Logf("jellyfish: %v", err)
			return false
		}
		paths := randomPaths(j.Graph, j.Switches, int(nPaths%40)+5, 6, seed^0x5ee)
		sys, err := Synthesize(j.Graph, paths.Paths(), Options{})
		if err != nil {
			t.Logf("synthesize: %v", err)
			return false
		}
		return sys.Runtime.Verify() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: GreedyMinimize preserves both deadlock-freedom requirements
// and never uses more tags than brute force.
func TestGreedyPreservesInvariants(t *testing.T) {
	f := func(seed int64, nSw, nPaths uint8) bool {
		cfg := topology.JellyfishConfig{
			Switches: int(nSw%10) + 4,
			Ports:    6,
			Seed:     seed,
		}
		j, err := topology.NewJellyfish(cfg)
		if err != nil {
			return false
		}
		paths := randomPaths(j.Graph, j.Switches, int(nPaths%30)+5, 5, seed^0xabc)
		bf := BruteForceN(j.Graph, paths.Paths(), 1)
		if bf.Verify() != nil {
			return false
		}
		merged := GreedyMinimize(bf)
		if merged.Verify() != nil {
			return false
		}
		return merged.NumTags() <= bf.NumTags() && merged.NumNodes() <= bf.NumNodes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// BCube with its default routing (one digit corrected per hop, all digit
// orders) needs exactly k+1 tags for BCube(n, k) — the paper: "a k-level
// BCube with default routing only needs k tags", where their k counts
// levels, i.e. our k+1.
func TestBCubeTagCount(t *testing.T) {
	cases := []struct {
		n, k     int
		wantTags int
	}{
		{4, 1, 2},
		{2, 2, 3},
	}
	for _, c := range cases {
		b, err := topology.NewBCube(c.n, c.k)
		if err != nil {
			t.Fatal(err)
		}
		s := elp.BCubeELP(b, nil)
		sys, err := Synthesize(b.Graph, s.Paths(), Options{})
		if err != nil {
			t.Fatalf("BCube(%d,%d): %v", c.n, c.k, err)
		}
		if got := sys.Runtime.NumSwitchTags(); got != c.wantTags {
			t.Errorf("BCube(%d,%d): switch tags = %d, want %d",
				c.n, c.k, got, c.wantTags)
		}
	}
}

// Jellyfish with shortest-path ELP needs very few tags (Table 5 reports 3
// for up to 2,000 switches); a 50-switch instance must stay at or below 3.
func TestJellyfishTagCountSmall(t *testing.T) {
	j, err := topology.NewJellyfish(topology.JellyfishConfig{Switches: 50, Ports: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := elp.ShortestAll(j.Graph, j.Switches)
	sys, err := Synthesize(j.Graph, s.Paths(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Runtime.NumSwitchTags(); got > 3 {
		t.Errorf("jellyfish-50 tags = %d, want <= 3 (Table 5)", got)
	}
	if len(sys.Conflicts) > 0 {
		t.Logf("note: %d fabric conflicts repaired by %d rules", len(sys.Conflicts), len(sys.Repairs))
	}
}

// TestRepairReplayPinnedSeeds: random-path ELPs like the property above,
// with longer walks and more of them so that Algorithm 2's merges
// conflict and the repair pass has work, some of it minting a new tag.
// The expected lists are the exact []Repair per seed.
func TestRepairReplayPinnedSeeds(t *testing.T) {
	cases := []struct {
		seed             int64
		switches, nPaths int
		want             []string
	}{
		{1, 8, 100, []string{
			"J6 2/1/2->2 J3>J1>J5>J2>J8>J6>J4",
			"J1 2/0/2->3 J4>J6>J8>J2>J7>J1>J5",
			"J5 2/0/2->3 J4>J3>J6>J8>J2>J5>J1",
			"J4 2/0/1->3 J1>J5>J7>J2>J8>J4>J6",
			"J2 2/1/2->2 J6>J8>J4>J3>J1>J7>J2>J5",
			"J6 2/0/2->2 J7>J2>J5>J1>J3>J6>J4",
		}},
		{1, 12, 100, []string{
			"J11 1/0/1->2 J8>J9>J2>J7>J10>J11>J4>J6",
			"J5 2/0/2->3 J6>J7>J10>J2>J9>J8>J1>J5>J12",
			"J1 1/1/0->1 J7>J6>J3>J8>J1>J5>J12",
			"J11 2/0/2->3 J1>J4>J6>J7>J10>J11>J12>J9>J8",
			"J10 2/0/2->3 J8>J3>J5>J12>J11>J10>J2>J7",
			"J3 1/1/2->1 J9>J12>J5>J3>J6>J4>J1>J8",
		}},
		{2, 12, 400, []string{
			"J1 2/1/0->3 J12>J10>J5>J2>J7>J11>J1>J9",
			"J12 2/0/2->3 J9>J3>J2>J5>J10>J12>J4>J8",
			"J1 2/0/1->3 J4>J12>J6>J3>J9>J1>J11>J7>J2",
		}},
	}
	for _, c := range cases {
		j, err := topology.NewJellyfish(topology.JellyfishConfig{Switches: c.switches, Ports: 6, Seed: c.seed})
		if err != nil {
			t.Fatal(err)
		}
		paths := randomPaths(j.Graph, j.Switches, c.nPaths, 8, c.seed^0x5ee)
		sys, err := Synthesize(j.Graph, paths.Paths(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(sys.Conflicts) == 0 {
			t.Errorf("seed %d/%d/%d: no conflicts, the case pins nothing", c.seed, c.switches, c.nPaths)
		}
		if got := repairLines(j.Graph, sys.Repairs); !slices.Equal(got, c.want) {
			t.Errorf("seed %d/%d/%d: repairs =\n%s\nwant\n%s", c.seed, c.switches, c.nPaths,
				strings.Join(got, "\n"), strings.Join(c.want, "\n"))
		}
	}
}
