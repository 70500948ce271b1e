package core

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/elp"
	"repro/internal/routing"
	"repro/internal/topology"
)

// freshRules is Rules() as it was before the sorted keys were memoized —
// collect the map's keys and sort them, every call — kept verbatim as the
// golden order the memo must reproduce after any mutation.
func freshRules(rs *Ruleset) []Rule {
	keys := make([]ruleKey, 0, len(rs.rules))
	for k := range rs.rules {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]Rule, len(keys))
	for i, k := range keys {
		sw, tag, in, o := k.unpack()
		out[i] = Rule{Switch: sw, Tag: tag, In: in, Out: o, NewTag: rs.rules[k]}
	}
	return out
}

// assertOrderedViews holds every view served from the sorted-key memo to
// the fresh sort: Rules(), the per-switch runs of RulesAt, and the dense
// IDs of RuleByID and ClassifyID.
func assertOrderedViews(t *testing.T, rs *Ruleset) {
	t.Helper()
	want := freshRules(rs)
	got := rs.Rules()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Rules() diverges from a fresh sort (%d vs %d rules)", len(got), len(want))
	}
	var perSwitch []Rule
	for _, n := range rs.g.Nodes() {
		perSwitch = append(perSwitch, rs.RulesAt(n)...)
	}
	if len(want) > 0 && !reflect.DeepEqual(perSwitch, want) {
		t.Fatalf("RulesAt runs do not concatenate to Rules(): %d vs %d rules", len(perSwitch), len(want))
	}
	for i, r := range want {
		if byID, ok := rs.RuleByID(i); !ok || byID != r {
			t.Fatalf("RuleByID(%d) = %+v,%v, want %+v", i, byID, ok, r)
		}
		if nt, id := rs.ClassifyID(r.Switch, r.Tag, r.In, r.Out); nt != r.NewTag || id != i {
			t.Fatalf("ClassifyID(%+v) = (%d,%d), want (%d,%d)", r, nt, id, r.NewTag, i)
		}
	}
	if _, ok := rs.RuleByID(len(want)); ok {
		t.Fatal("RuleByID past the end resolved")
	}
}

func TestRulesMemoInvalidatedByAdd(t *testing.T) {
	cl, err := topology.NewClos(topology.ClosConfig{Pods: 2, ToRsPerPod: 2, LeafsPerPod: 2, Spines: 2})
	if err != nil {
		t.Fatal(err)
	}
	g := cl.Graph
	rs := NewRuleset(g, 2)
	assertOrderedViews(t, rs) // memoizes the empty order

	sws := g.Switches()
	// Descending switches and tags: every Add lands before what the memo
	// last saw, so a stale memo shows as a missing or misplaced rule.
	for i := len(sws) - 1; i >= 0; i-- {
		for tag := 2; tag >= 1; tag-- {
			rs.Add(Rule{Switch: sws[i], Tag: tag, In: 0, Out: 1, NewTag: tag})
			assertOrderedViews(t, rs)
		}
	}
	// Re-adding a present match with another rewrite changes no key but
	// must still show in the materialized rules.
	rs.Add(Rule{Switch: sws[0], Tag: 1, In: 0, Out: 1, NewTag: 2})
	assertOrderedViews(t, rs)
	if at := rs.RulesAt(topology.NodeID(g.NumNodes() + 5)); at != nil {
		t.Fatalf("RulesAt on an unknown switch = %v", at)
	}
}

// TestRulesMemoThroughChurnReplay replays link flaps and drains through
// Resynth.Apply — the fast path hands the previous Ruleset on unchanged,
// the slow path builds a new one — and holds the ordered views to the
// fresh sort after every event.
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
	assertOrderedViews(t, r.System().Rules)
	tr := elp.NewTracker(g, set)

	apply := func(what string, added, removed []routing.Path) {
		t.Helper()
		sys, err := r.Apply(added, removed)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		assertOrderedViews(t, sys.Rules)
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
