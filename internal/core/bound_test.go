package core

import (
	"math/rand"
	"testing"

	"repro/internal/elp"
	"repro/internal/topology"
)

// greedyTagUpperBound is the §5.3 output bound for Algorithm 2: with T
// the largest brute-force tag (the longest lossless route length) and l a
// lower bound on the smallest cycle among the lossless routes' buffer
// dependencies, the merged tag count is at most ceil(T/l). With no cycle
// information (l <= 1) it degrades to the brute-force worst case T.
func greedyTagUpperBound(longestRoute, smallestCycle int) int {
	if longestRoute <= 0 {
		return 0
	}
	if smallestCycle <= 1 {
		return longestRoute
	}
	return (longestRoute + smallestCycle - 1) / smallestCycle
}

func TestGreedyTagUpperBoundArithmetic(t *testing.T) {
	cases := []struct{ T, l, want int }{
		{0, 4, 0},
		{5, 0, 5},
		{5, 1, 5},
		{6, 3, 2},
		{7, 3, 3},
		{9, 3, 3},
		{4, 10, 1},
	}
	for _, c := range cases {
		if got := greedyTagUpperBound(c.T, c.l); got != c.want {
			t.Errorf("bound(%d,%d) = %d, want %d", c.T, c.l, got, c.want)
		}
	}
}

// TestGreedyRespectsBoundEmpirically: on Jellyfish instances, the merged
// tag count never exceeds ceil(T/l) computed from the observed smallest
// same-priority dependency cycle. Measuring the true smallest cycle is
// expensive; the conservative l = 2 (any directed cycle over distinct
// ports has length >= 2) must always hold, and so must the trivial l = 1.
func TestGreedyRespectsBoundEmpirically(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 5; i++ {
		j, err := topology.NewJellyfish(topology.JellyfishConfig{
			Switches: 12 + rng.Intn(20), Ports: 6, Seed: int64(i) + 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		set := elp.ShortestAll(j.Graph, j.Switches)
		bf := BruteForceN(j.Graph, set.Paths(), 1)
		merged := GreedyMinimize(bf)
		T := bf.maxTag
		if got := merged.NumTags(); got > greedyTagUpperBound(T, 2) {
			t.Errorf("case %d: merged %d tags > bound %d (T=%d, l=2)",
				i, got, greedyTagUpperBound(T, 2), T)
		}
	}
}

// TestRepairHealsSabotagedRules: delete random rules from a verified
// system; RepairReplay must restore full ELP losslessness and the runtime
// graph must verify again — the machinery that also covers merge-conflict
// fallout.
func TestRepairHealsSabotagedRules(t *testing.T) {
	j, err := topology.NewJellyfish(topology.JellyfishConfig{Switches: 14, Ports: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	set := elp.ShortestAll(j.Graph, j.Switches)
	sys, err := Synthesize(j.Graph, set.Paths(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Per trial, the exact repair list (see repairDigest).
	want := [5]repairDigest{
		{n: 20, bumps: 3, sum: 0xeeeeeca2594ca6a0},
		{n: 33, bumps: 3, sum: 0x1a1bedb34c614012},
		{n: 30, bumps: 4, sum: 0x22f7484488da018b},
		{n: 24, bumps: 3, sum: 0x12a2b0b6a9e82041},
		{n: 33, bumps: 4, sum: 0xb764a7bc02971df6},
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 5; trial++ {
		// Rebuild a sabotaged copy: drop ~30% of rules.
		sab := NewRuleset(j.Graph, sys.Rules.MaxTag())
		for _, r := range sys.Rules.Rules() {
			if rng.Float64() < 0.3 {
				continue
			}
			sab.Add(r)
		}
		_, violations := BuildRuleGraph(sab, set.Paths(), 1)
		if len(violations) == 0 {
			continue // sabotage missed every path; try again
		}
		repairs := repairReplay(sab, set.Paths(), newHopPorts(sab.g, set.Paths(), 0), 1)
		if len(repairs) == 0 {
			t.Fatalf("trial %d: repair produced nothing despite %d violations",
				trial, len(violations))
		}
		checkRepairDigest(t, j.Graph, repairs, want[trial])
		tg, after := BuildRuleGraph(sab, set.Paths(), 1)
		if len(after) != 0 {
			t.Fatalf("trial %d: %d paths still lossy after repair", trial, len(after))
		}
		if err := tg.Verify(); err != nil {
			t.Fatalf("trial %d: repaired graph unsafe: %v", trial, err)
		}
	}
}
