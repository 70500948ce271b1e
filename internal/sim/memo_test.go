package sim

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/paper"
	"repro/internal/routing"
	"repro/internal/topology"
)

// checkForwardMemo compares the memo against the authority at every
// (node, dst). Running it twice back to back checks both the fill and
// the hit path.
func checkForwardMemo(t *testing.T, n *Network, after string) {
	t.Helper()
	for pass := 0; pass < 2; pass++ {
		for id := range n.nodes {
			for dst := range n.nodes {
				got := n.nextHops(topology.NodeID(id), topology.NodeID(dst))
				want := n.tables.NextHops(topology.NodeID(id), topology.NodeID(dst))
				if !slices.Equal(got, want) {
					t.Fatalf("after %s (pass %d): memoized next hops %s->%s = %v, tables say %v",
						after, pass, n.nodeName(topology.NodeID(id)), n.nodeName(topology.NodeID(dst)), got, want)
				}
			}
		}
	}
}

// TestForwardMemoInvalidation: every way a Tables entry can change must
// be visible through a memo that had the old answer cached.
func TestForwardMemoInvalidation(t *testing.T) {
	c := paper.Testbed()
	g := c.Graph
	tb := routing.ComputeToHosts(g, routing.UpDown)
	n := New(g, tb, DefaultConfig())
	t3, l3, l4, h1 := g.MustLookup("T3"), g.MustLookup("L3"), g.MustLookup("L4"), g.MustLookup("H1")

	checkForwardMemo(t, n, "construction")
	if len(n.nextHops(t3, h1)) < 2 {
		t.Fatalf("T3->H1 should be an ECMP set, got %v", n.nextHops(t3, h1))
	}

	tb.Override(t3, h1, g.PortToPeer(t3, l4))
	checkForwardMemo(t, n, "Override")
	if got := n.nextHops(t3, h1); len(got) != 1 {
		t.Fatalf("T3->H1 after Override = %v, want the single overriding port", got)
	}

	tb.Override(t3, h1) // blackhole
	checkForwardMemo(t, n, "Override to no ports")
	if got := n.nextHops(t3, h1); len(got) != 0 {
		t.Fatalf("T3->H1 after blackhole = %v, want none", got)
	}

	tb.OverrideNextNode(t3, h1, l3)
	checkForwardMemo(t, n, "OverrideNextNode")

	tb.Recompute()
	checkForwardMemo(t, n, "Recompute")
	if len(n.nextHops(t3, h1)) < 2 {
		t.Fatalf("T3->H1 after Recompute = %v, want the ECMP set back", n.nextHops(t3, h1))
	}
}

// checkInstalled compares the installed tables with the ruleset at every
// forwarding node, tag 0..maxTag+1 and port pair: the same rewrite, and
// the deciding rule's ID exactly where an exact rule decided.
func checkInstalled(t *testing.T, n *Network, rs *core.Ruleset, after string) {
	t.Helper()
	for id := range n.nodes {
		if n.nodes[id].isHost {
			continue
		}
		sw := topology.NodeID(id)
		np := len(n.nodes[id].ports)
		for tag := 0; tag <= rs.MaxTag()+1; tag++ {
			for in := 0; in < np; in++ {
				for out := 0; out < np; out++ {
					c := n.cls[sw].Decide(tag, in, out)
					want := rs.Classify(sw, tag, in, out)
					_, hit := rs.Lookup(sw, tag, in, out)
					hit = hit && rs.IsLossless(tag)
					if int(c.NewTag) != want || (c.Rule >= 0) != hit {
						t.Fatalf("after %s: table(%s, tag %d, in %d, out %d) = %+v, ruleset says %d (exact hit %v)",
							after, n.nodeName(sw), tag, in, out, c, want, hit)
					}
					if hit && n.ruleByID[c.Rule] != (core.Rule{Switch: sw, Tag: tag, In: in, Out: out, NewTag: want}) {
						t.Fatalf("after %s: rule ID %d at (%s, tag %d, in %d, out %d) names %+v",
							after, c.Rule, n.nodeName(sw), tag, in, out, n.ruleByID[c.Rule])
					}
				}
			}
		}
	}
}

// TestInstalledTableMatchesClassify: InstallTagger compiles a snapshot
// of the rules that decides as Ruleset.Classify does; installing again
// swaps the decisions, arming the flight recorder changes none of them,
// and a port the switch lacks still panics.
func TestInstalledTableMatchesClassify(t *testing.T) {
	c := paper.Testbed()
	g := c.Graph
	n := New(g, routing.ComputeToHosts(g, routing.UpDown), DefaultConfig())
	rs := core.ClosRules(g, 1, 1)
	n.InstallTagger(rs)
	checkInstalled(t, n, rs, "InstallTagger")

	// The bounce at L1 (down from S1, back up to S2) bumps tag 1 to 2.
	l1 := g.MustLookup("L1")
	in, out := g.PortToPeer(l1, g.MustLookup("S1")), g.PortToPeer(l1, g.MustLookup("S2"))
	if got := n.cls[l1].Decide(1, in, out); got.NewTag != 2 || got.Rule < 0 {
		t.Fatalf("bounce at L1 decides %+v, want tag 2 by a rule", got)
	}

	// A snapshot: changing the ruleset changes nothing until it is
	// installed again, and then the new decision shows.
	rs.Add(core.Rule{Switch: l1, Tag: 1, In: in, Out: out, NewTag: 1})
	if got := n.cls[l1].Decide(1, in, out); got.NewTag != 2 {
		t.Fatalf("installed table followed a later Add: %+v", got)
	}
	n.InstallTagger(rs)
	checkInstalled(t, n, rs, "second InstallTagger")
	if got := n.cls[l1].Decide(1, in, out); got.NewTag != 1 {
		t.Fatalf("reinstalled bounce decides %+v, want tag 1", got)
	}

	// Arming the flight recorder changes no decision.
	n.EnableFlightRecorder(FlightRecConfig{})
	checkInstalled(t, n, rs, "EnableFlightRecorder")

	// A port the switch does not have panics rather than reading another
	// switch's cell.
	for _, p := range [][2]int{{-1, out}, {in, len(n.nodes[l1].ports)}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ports %v at L1 decided without a panic", p)
				}
			}()
			n.cls[l1].Decide(1, p[0], p[1])
		}()
	}

	n.InstallTagger(nil)
	if n.cls != nil || n.prioOf(3) != 3 {
		t.Fatalf("InstallTagger(nil) left Tagger on: %d tables, prioOf(3) = %d", len(n.cls), n.prioOf(3))
	}
}
