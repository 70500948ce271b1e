package deploy

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/elp"
	"repro/internal/paper"
	"repro/internal/topology"
)

func testRules(t *testing.T) (*topology.Clos, *core.Ruleset) {
	t.Helper()
	c := paper.Testbed()
	return c, core.ClosRules(c.Graph, 1, 1)
}

func TestExportImportRoundTrip(t *testing.T) {
	c, rs := testRules(t)
	b := Export(rs)
	if b.MaxTag != 2 {
		t.Errorf("MaxTag = %d", b.MaxTag)
	}
	data, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	rs2, err := Import(c.Graph, b2)
	if err != nil {
		t.Fatal(err)
	}
	// Byte-identical behavior: every rule present, same classifications
	// on a full ELP replay.
	if rs2.Len() != rs.Len() || rs2.MaxTag() != rs.MaxTag() {
		t.Fatalf("len %d vs %d, maxtag %d vs %d", rs2.Len(), rs.Len(), rs2.MaxTag(), rs.MaxTag())
	}
	set := elp.KBounce(c.Graph, c.ToRs, 1, nil)
	for _, p := range set.Paths() {
		a := rs.Replay(p, 1)
		b := rs2.Replay(p, 1)
		for i := range a.Tags {
			if a.Tags[i] != b.Tags[i] {
				t.Fatalf("replay differs on %s", p.String(c.Graph))
			}
		}
	}
}

func TestMarshalDeterministic(t *testing.T) {
	_, rs := testRules(t)
	a, err := Export(rs).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Export(rs).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("bundle serialization is not deterministic")
	}
}

func TestImportUnknownSwitch(t *testing.T) {
	c, rs := testRules(t)
	b := Export(rs)
	b.Switches["NOPE"] = SwitchBundle{Rules: []RuleJSON{{Tag: 1, In: 0, Out: 1, NewTag: 1}}}
	if _, err := Import(c.Graph, b); err == nil {
		t.Fatal("unknown switch accepted")
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte("{")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestExpansionLeavesOldSwitchesUntouched is the §6 claim: "If a
// FatTree-like topology is expanded by adding new pods under existing
// spines, none of the older switches need any rule changes" — modulo the
// spines themselves, which gain keep-entries for their new ports (the
// paper's deployment covers those with port-wildcard patterns, so no
// entry rewrite is needed there either; we assert the strict version for
// non-spine switches and additions-only for spines).
func TestExpansionLeavesOldSwitchesUntouched(t *testing.T) {
	c := paper.Testbed()
	g := c.Graph
	before := Export(core.ClosRules(g, 1, 1))

	oldSwitchNames := map[string]bool{}
	for _, sw := range g.Switches() {
		oldSwitchNames[g.Node(sw).Name] = true
	}
	spineNames := map[string]bool{}
	for _, s := range c.Spines {
		spineNames[g.Node(s).Name] = true
	}

	if err := c.Expand(1); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	after := Export(core.ClosRules(g, 1, 1))

	diffs := Diff(before, after)
	for name, d := range diffs {
		switch {
		case !oldSwitchNames[name]:
			// New switch: additions only, naturally.
			if len(d.Removed) != 0 {
				t.Errorf("new switch %s has removals", name)
			}
		case spineNames[name]:
			if len(d.Removed) != 0 {
				t.Errorf("spine %s lost rules on expansion", name)
			}
			// Every added spine rule must involve a new port.
			sw := g.MustLookup(name)
			for _, r := range d.Added {
				inPeer := g.Port(g.PortOn(sw, r.In)).Peer
				outPeer := g.Port(g.PortOn(sw, r.Out)).Peer
				if oldSwitchNames[g.Node(inPeer).Name] && oldSwitchNames[g.Node(outPeer).Name] {
					t.Errorf("spine %s added rule between OLD ports: %+v", name, r)
				}
			}
		default:
			t.Errorf("old non-spine switch %s needs rule changes: +%d -%d",
				name, len(d.Added), len(d.Removed))
		}
	}

	// And the expanded fabric still verifies with the same queue count.
	set := elp.KBounce(g, c.ToRs, 1, nil)
	sys, err := core.ClosSynthesize(g, set.Paths(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.NumLosslessQueues(); got != 2 {
		t.Errorf("expanded fabric queues = %d", got)
	}
}

// TestFailureNeedsNoRuleChanges is the deeper §3/§6 point: Tagger's rules
// are static — link failures change routing, not rules.
func TestFailureNeedsNoRuleChanges(t *testing.T) {
	c := paper.Testbed()
	g := c.Graph
	before := Export(core.ClosRules(g, 1, 1))
	g.FailLink(g.MustLookup("L1"), g.MustLookup("T1"))
	after := Export(core.ClosRules(g, 1, 1))
	if diffs := Diff(before, after); len(diffs) != 0 {
		t.Fatalf("link failure changed rules: %v", diffs)
	}
}

func TestDiffSymmetry(t *testing.T) {
	_, rs := testRules(t)
	b := Export(rs)
	if diffs := Diff(b, b); len(diffs) != 0 {
		t.Fatal("self-diff not empty")
	}
	empty := &Bundle{MaxTag: b.MaxTag, Switches: map[string]SwitchBundle{}}
	add := Diff(empty, b)
	rem := Diff(b, empty)
	for n, d := range add {
		if len(d.Removed) != 0 || len(rem[n].Added) != 0 {
			t.Fatal("diff directions crossed")
		}
		if len(d.Added) != len(rem[n].Removed) {
			t.Fatal("diff asymmetric")
		}
	}
}

// TestMarshalLeavesBundleUntouched: Marshal emits canonical order but must
// not reorder the caller's rule slices — agents and push workers may be
// reading them.
func TestMarshalLeavesBundleUntouched(t *testing.T) {
	shuffled := []RuleJSON{{3, 1, 0, 3}, {1, 2, 2, 1}, {2, 0, 1, 3}, {1, 0, 1, 2}}
	b := &Bundle{MaxTag: 3, Switches: map[string]SwitchBundle{
		"A": {Rules: append([]RuleJSON(nil), shuffled...)},
		"B": {Rules: []RuleJSON{{1, 0, 1, 2}, {2, 0, 1, 3}}},
	}}
	data, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Switches["A"].Rules, shuffled) {
		t.Fatalf("Marshal reordered the bundle in place: %v", b.Switches["A"].Rules)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	want := []RuleJSON{{1, 0, 1, 2}, {1, 2, 2, 1}, {2, 0, 1, 3}, {3, 1, 0, 3}}
	if !reflect.DeepEqual(back.Switches["A"].Rules, want) {
		t.Fatalf("marshalled order = %v, want canonical %v", back.Switches["A"].Rules, want)
	}
	if again, _ := b.Marshal(); !bytes.Equal(again, data) {
		t.Fatal("second Marshal of the same bundle differs")
	}
}

// TestExportIsCanonicalPerSwitch: Export hands out every switch's table
// already in Marshal's order, each slice capped to its own rules so an
// append cannot run into a neighbour sharing the backing array.
func TestExportIsCanonicalPerSwitch(t *testing.T) {
	c, rs := testRules(t)
	b := Export(rs)
	total := 0
	for name, sb := range b.Switches {
		id := c.Graph.MustLookup(name)
		at := rs.RulesAt(id)
		if len(at) != len(sb.Rules) || cap(sb.Rules) != len(sb.Rules) {
			t.Fatalf("%s: %d rules (cap %d), ruleset has %d", name, len(sb.Rules), cap(sb.Rules), len(at))
		}
		for i, r := range at {
			if (RuleJSON{r.Tag, r.In, r.Out, r.NewTag}) != sb.Rules[i] {
				t.Fatalf("%s rule %d = %+v, ruleset order has %+v", name, i, sb.Rules[i], r)
			}
		}
		total += len(sb.Rules)
	}
	if total != rs.Len() {
		t.Fatalf("bundle holds %d rules, ruleset %d", total, rs.Len())
	}
}
