package core

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/elp"
	"repro/internal/routing"
	"repro/internal/topology"
)

// ruleLess is the (switch, tag, in, out) order Rules() promises.
func ruleLess(a, b Rule) bool {
	if a.Switch != b.Switch {
		return a.Switch < b.Switch
	}
	if a.Tag != b.Tag {
		return a.Tag < b.Tag
	}
	if a.In != b.In {
		return a.In < b.In
	}
	return a.Out < b.Out
}

// assertOrderedViews holds the ordered views of the rule rows to what a
// sort of the installed rules gives: Rules() strictly ascending, as long
// as Len(), every rule what Lookup answers, the per-switch runs of
// RulesAt concatenating to it, and — when want is non-nil, a rule map the
// test kept itself — exactly want's rules.
func assertOrderedViews(t *testing.T, rs *Ruleset, want map[[4]int]int) {
	t.Helper()
	got := rs.Rules()
	if len(got) != rs.Len() {
		t.Fatalf("Rules() has %d rules, Len() = %d", len(got), rs.Len())
	}
	for i, r := range got {
		if i > 0 && !ruleLess(got[i-1], r) {
			t.Fatalf("Rules() out of order at %d: %+v after %+v", i, r, got[i-1])
		}
		if nt, ok := rs.Lookup(r.Switch, r.Tag, r.In, r.Out); !ok || nt != r.NewTag {
			t.Fatalf("Rules() lists %+v, Lookup = %d,%v", r, nt, ok)
		}
	}
	if want != nil {
		ref := make([]Rule, 0, len(want))
		for k, nt := range want {
			ref = append(ref, Rule{Switch: topology.NodeID(k[0]), Tag: k[1], In: k[2], Out: k[3], NewTag: nt})
		}
		sort.Slice(ref, func(i, j int) bool { return ruleLess(ref[i], ref[j]) })
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("Rules() diverges from a sort of the added rules (%d vs %d rules)", len(got), len(ref))
		}
	}
	var perSwitch []Rule
	for _, n := range rs.g.Nodes() {
		perSwitch = append(perSwitch, rs.RulesAt(n)...)
	}
	if len(got) > 0 && !reflect.DeepEqual(perSwitch, got) {
		t.Fatalf("RulesAt runs do not concatenate to Rules(): %d vs %d rules", len(perSwitch), len(got))
	}
}

func TestRulesMemoInvalidatedByAdd(t *testing.T) {
	cl, err := topology.NewClos(topology.ClosConfig{Pods: 2, ToRsPerPod: 2, LeafsPerPod: 2, Spines: 2})
	if err != nil {
		t.Fatal(err)
	}
	g := cl.Graph
	rs := NewRuleset(g, 2)
	want := map[[4]int]int{}
	assertOrderedViews(t, rs, want)

	sws := g.Switches()
	// Descending switches and tags: every Add lands before the rules
	// already installed, so a view that does not follow the rows shows
	// as a missing or misplaced rule.
	for i := len(sws) - 1; i >= 0; i-- {
		for tag := 2; tag >= 1; tag-- {
			rs.Add(Rule{Switch: sws[i], Tag: tag, In: 0, Out: 1, NewTag: tag})
			want[[4]int{int(sws[i]), tag, 0, 1}] = tag
			assertOrderedViews(t, rs, want)
		}
	}
	// Re-adding a present match with another rewrite changes no key but
	// must still show in the materialized rules.
	rs.Add(Rule{Switch: sws[0], Tag: 1, In: 0, Out: 1, NewTag: 2})
	want[[4]int{int(sws[0]), 1, 0, 1}] = 2
	assertOrderedViews(t, rs, want)
	if at := rs.RulesAt(topology.NodeID(g.NumNodes() + 5)); at != nil {
		t.Fatalf("RulesAt on an unknown switch = %v", at)
	}
}

// TestRulesMemoThroughChurnReplay replays link flaps and drains through
// Resynth.Apply — the fast path hands the previous Ruleset on unchanged,
// the slow path builds a new one — and holds the ordered views to a sort
// after every event.
func TestRulesMemoThroughChurnReplay(t *testing.T) {
	cl, err := topology.NewClos(topology.ClosConfig{Pods: 2, ToRsPerPod: 2, LeafsPerPod: 2, Spines: 2})
	if err != nil {
		t.Fatal(err)
	}
	g := cl.Graph
	set := elp.KBounce(g, cl.ToRs, 1, nil)
	r, err := NewResynth(g, set.Paths(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertOrderedViews(t, r.System().Rules, nil)
	tr := elp.NewTracker(g, set)

	apply := func(what string, added, removed []routing.Path) {
		t.Helper()
		sys, err := r.Apply(added, removed)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		assertOrderedViews(t, sys.Rules, nil)
	}
	links := [][2]string{{"T1", "L1"}, {"L1", "S1"}, {"T3", "L4"}, {"L3", "S2"}}
	for _, l := range links {
		a, b := g.MustLookup(l[0]), g.MustLookup(l[1])
		g.FailLink(a, b)
		apply("down "+l[0]+"-"+l[1], nil, tr.LinkDown(a, b))
	}
	sw := g.MustLookup("S2")
	apply("drain S2", nil, tr.Drain(sw))
	for _, l := range links {
		a, b := g.MustLookup(l[0]), g.MustLookup(l[1])
		g.RestoreLink(a, b)
		apply("up "+l[0]+"-"+l[1], tr.LinkUp(a, b), nil)
	}
	apply("undrain S2", tr.Undrain(sw), nil)
	if len(r.Paths()) != set.Len() {
		t.Fatalf("replay ended with %d paths, want %d", len(r.Paths()), set.Len())
	}
}
