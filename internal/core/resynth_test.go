package core_test

import (
	"reflect"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/elp"
	"repro/internal/routing"
	"repro/internal/topology"
)

// resynthClos builds the standard small Clos + k-bounce ELP the resynth
// tests churn.
func resynthClos(t *testing.T) (*topology.Clos, *elp.Set) {
	t.Helper()
	cl, err := topology.NewClos(topology.ClosConfig{
		Pods: 2, ToRsPerPod: 2, LeafsPerPod: 2, Spines: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl, elp.KBounce(cl.Graph, cl.ToRs, 1, nil)
}

// assertScratchEqual holds the Resynth state to its contract: its system
// is indistinguishable — rules, max tag, conflicts, all three tagged
// graphs — from Synthesize on its own tracked path list.
func assertScratchEqual(t *testing.T, g *topology.Graph, rs *core.Resynth) {
	t.Helper()
	sys := rs.System()
	ref, err := core.Synthesize(g, rs.Paths(), core.Options{Workers: 1})
	if err != nil {
		t.Fatalf("reference synthesis: %v", err)
	}
	if diffs := check.DiffRulesets(ref.Rules, sys.Rules); len(diffs) > 0 {
		t.Fatalf("rules diverge from scratch (%d diffs; first: %s)", len(diffs), diffs[0])
	}
	if a, b := ref.Rules.MaxTag(), sys.Rules.MaxTag(); a != b {
		t.Fatalf("max tag %d, from-scratch %d", b, a)
	}
	if !reflect.DeepEqual(ref.Conflicts, sys.Conflicts) {
		t.Fatalf("conflicts diverge: %v vs %v", sys.Conflicts, ref.Conflicts)
	}
	pairs := []struct {
		name string
		a, b *core.TaggedGraph
	}{
		{"brute-force", ref.BruteForce, sys.BruteForce},
		{"merged", ref.Merged, sys.Merged},
		{"runtime", ref.Runtime, sys.Runtime},
	}
	for _, p := range pairs {
		if (p.a == nil) != (p.b == nil) {
			t.Fatalf("%s graph present on one side only", p.name)
		}
		if p.a == nil {
			continue
		}
		if !reflect.DeepEqual(p.a.Nodes(), p.b.Nodes()) || !reflect.DeepEqual(p.a.Edges(), p.b.Edges()) {
			t.Fatalf("%s graphs diverge from scratch", p.name)
		}
	}
}

// TestResynthLinkFlapMatchesFromScratch drives a link failure and its
// recovery through Apply and demands from-scratch equality at every
// step, ending rule-for-rule back at the initial deployment.
func TestResynthLinkFlapMatchesFromScratch(t *testing.T) {
	cl, set := resynthClos(t)
	g := cl.Graph
	rs, err := core.NewResynth(g, set.Paths(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	initialRules := rs.System().Rules
	tr := elp.NewTracker(g, set)

	a, b := g.MustLookup("T1"), g.MustLookup("L1")
	g.FailLink(a, b)
	removed := tr.LinkDown(a, b)
	if len(removed) == 0 {
		t.Fatal("link-down removed no paths")
	}
	if _, err := rs.Apply(nil, removed); err != nil {
		t.Fatal(err)
	}
	assertScratchEqual(t, g, rs)
	if len(rs.Paths()) != set.Len()-len(removed) {
		t.Fatalf("tracked %d paths, want %d", len(rs.Paths()), set.Len()-len(removed))
	}

	g.RestoreLink(a, b)
	if _, err := rs.Apply(tr.LinkUp(a, b), nil); err != nil {
		t.Fatal(err)
	}
	assertScratchEqual(t, g, rs)
	if diffs := check.DiffRulesets(initialRules, rs.System().Rules); len(diffs) > 0 {
		t.Fatalf("down+up did not restore the initial rules: %d diffs", len(diffs))
	}
}

// TestResynthFastPathReusesRules: when every removed path's brute-force
// chain is covered by surviving paths, the vertex/edge set is unchanged
// and Apply must reuse the previous Ruleset object outright (no re-merge,
// no re-derive) while staying equal to from-scratch.
func TestResynthFastPathReusesRules(t *testing.T) {
	g := topology.New()
	t1 := g.AddNode("T1", topology.KindToR, 1)
	l1 := g.AddNode("L1", topology.KindLeaf, 2)
	s1 := g.AddNode("S1", topology.KindSpine, 3)
	l2 := g.AddNode("L2", topology.KindLeaf, 2)
	g.Connect(t1, l1)
	g.Connect(l1, s1)
	g.Connect(s1, l2)

	short := routing.Path{t1, l1, s1}
	long := routing.Path{t1, l1, s1, l2}
	rs, err := core.NewResynth(g, []routing.Path{short, long}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prev := rs.System()
	sys, err := rs.Apply(nil, []routing.Path{short})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Rules != prev.Rules || sys.Merged != prev.Merged || sys.BruteForce != prev.BruteForce {
		t.Fatal("BF-set-preserving removal did not take the rules-reuse fast path")
	}
	assertScratchEqual(t, g, rs)

	// Re-adding it is also set-preserving: same fast path, same rules.
	sys2, err := rs.Apply([]routing.Path{short}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sys2.Rules != prev.Rules {
		t.Fatal("BF-set-preserving add did not reuse the rules")
	}
	assertScratchEqual(t, g, rs)
}

// TestResynthEmptyDelta: a no-op churn returns the current system
// without any recomputation.
func TestResynthEmptyDelta(t *testing.T) {
	cl, set := resynthClos(t)
	rs, err := core.NewResynth(cl.Graph, set.Paths(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prev := rs.System()
	sys, err := rs.Apply(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sys != prev {
		t.Fatal("empty delta rebuilt the system")
	}
	// Removing untracked and re-adding tracked paths is also a no-op.
	foreign := routing.Path{cl.Graph.MustLookup("T1"), cl.Graph.MustLookup("L1")}
	sys, err = rs.Apply(set.Paths()[:1], []routing.Path{foreign})
	if err != nil {
		t.Fatal(err)
	}
	if sys != prev {
		t.Fatal("no-op add/remove rebuilt the system")
	}
}

// TestResynthRemoveAllThenReadd: the state survives draining the entire
// ELP (an empty but valid system) and rebuilding it back.
func TestResynthRemoveAllThenReadd(t *testing.T) {
	cl, set := resynthClos(t)
	g := cl.Graph
	rs, err := core.NewResynth(g, set.Paths(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	initialRules := rs.System().Rules
	sys, err := rs.Apply(nil, set.Paths())
	if err != nil {
		t.Fatal(err)
	}
	if sys.Rules.Len() != 0 || len(rs.Paths()) != 0 {
		t.Fatalf("emptied system still has %d rules, %d paths", sys.Rules.Len(), len(rs.Paths()))
	}
	assertScratchEqual(t, g, rs)
	if _, err := rs.Apply(set.Paths(), nil); err != nil {
		t.Fatal(err)
	}
	assertScratchEqual(t, g, rs)
	if diffs := check.DiffRulesets(initialRules, rs.System().Rules); len(diffs) > 0 {
		t.Fatalf("re-add did not restore the initial rules: %d diffs", len(diffs))
	}
}

// TestResynthApplySetExpansion: ApplySet diffs against the tracked set —
// here across a pod expansion, where the graph grows under the state.
func TestResynthApplySetExpansion(t *testing.T) {
	cl, set := resynthClos(t)
	g := cl.Graph
	rs, err := core.NewResynth(g, set.Paths(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Expand(1); err != nil {
		t.Fatal(err)
	}
	grown := elp.KBounce(g, cl.ToRs, 1, nil)
	if grown.Len() <= set.Len() {
		t.Fatalf("expansion did not grow the ELP: %d -> %d", set.Len(), grown.Len())
	}
	if _, err := rs.ApplySet(grown.Paths()); err != nil {
		t.Fatal(err)
	}
	if len(rs.Paths()) != grown.Len() {
		t.Fatalf("tracking %d paths, want %d", len(rs.Paths()), grown.Len())
	}
	assertScratchEqual(t, g, rs)

	// And shrinking back down via the same entry point.
	if _, err := rs.ApplySet(set.Paths()); err != nil {
		t.Fatal(err)
	}
	assertScratchEqual(t, g, rs)
}

// TestResynthWorkersConsistent: the incremental path under parallel
// derivation matches serial from-scratch synthesis (the engine inherits
// internal/sweep's determinism contract).
func TestResynthWorkersConsistent(t *testing.T) {
	cl, set := resynthClos(t)
	g := cl.Graph
	rs, err := core.NewResynth(g, set.Paths(), core.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	tr := elp.NewTracker(g, set)
	a, b := g.MustLookup("T2"), g.MustLookup("L2")
	g.FailLink(a, b)
	if _, err := rs.Apply(nil, tr.LinkDown(a, b)); err != nil {
		t.Fatal(err)
	}
	assertScratchEqual(t, g, rs)
}
