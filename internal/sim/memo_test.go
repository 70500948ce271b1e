package sim

import (
	"fmt"
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

// classifyOutcome is what a classify call did: its results, or the panic
// it raised (an out-of-range port reaches Graph.PortOn).
func classifyOutcome(f func() (int, int)) (out string) {
	defer func() {
		if r := recover(); r != nil {
			out = fmt.Sprint("panic: ", r)
		}
	}()
	nt, id := f()
	return fmt.Sprintf("tag %d by rule %d", nt, id)
}

// checkClassMemo compares the memo against the ruleset at every
// (switch, tag, in, out) — including tags and ports on either side of
// the table's range, which must come out as the ruleset has them.
func checkClassMemo(t *testing.T, n *Network, after string) {
	t.Helper()
	rs := n.rules
	tags := []int{-1, 0, rs.MaxTag() + 1, 255, 256, 1 << 20}
	for tag := 1; tag <= rs.MaxTag(); tag++ {
		tags = append(tags, tag)
	}
	for pass := 0; pass < 2; pass++ {
		for id := range n.nodes {
			if n.nodes[id].isHost {
				continue
			}
			sw := topology.NodeID(id)
			np := len(n.nodes[id].ports)
			for _, tag := range tags {
				for in := -1; in <= np; in++ {
					for out := -1; out <= np; out++ {
						got := classifyOutcome(func() (int, int) { return n.classify(sw, tag, in, out) })
						want := classifyOutcome(func() (int, int) {
							if n.flightrec != nil {
								return rs.ClassifyID(sw, tag, in, out)
							}
							return rs.Classify(sw, tag, in, out), -1
						})
						if got != want {
							t.Fatalf("after %s (pass %d): memoized classify(%s, tag %d, in %d, out %d): %s; ruleset: %s",
								after, pass, n.nodeName(sw), tag, in, out, got, want)
						}
					}
				}
			}
		}
	}
}

// TestClassifyMemoInvalidation: every way a pipeline decision can change
// must be visible through a memo that had the old decision cached.
func TestClassifyMemoInvalidation(t *testing.T) {
	c := paper.Testbed()
	g := c.Graph
	n := New(g, routing.ComputeToHosts(g, routing.UpDown), DefaultConfig())
	rs := core.ClosRules(g, 1, 1)
	n.InstallTagger(rs)
	checkClassMemo(t, n, "InstallTagger")

	// Rewrite a decision the memo holds: the bounce at L1 (down from S1,
	// back up to S2) bumps tag 1 to 2 under ClosRules.
	l1 := g.MustLookup("L1")
	in, out := g.PortToPeer(l1, g.MustLookup("S1")), g.PortToPeer(l1, g.MustLookup("S2"))
	if nt, _ := n.classify(l1, 1, in, out); nt != 2 {
		t.Fatalf("bounce at L1 classifies tag 1 -> %d, want 2", nt)
	}
	rs.Add(core.Rule{Switch: l1, Tag: 1, In: in, Out: out, NewTag: 1})
	checkClassMemo(t, n, "Ruleset.Add over an installed rule")
	if nt, _ := n.classify(l1, 1, in, out); nt != 1 {
		t.Fatalf("after Add the bounce classifies tag 1 -> %d, want 1", nt)
	}

	// A fresh match on a tag above the memo's range: Add raises maxTag.
	rs.Add(core.Rule{Switch: l1, Tag: 2, In: in, Out: out, NewTag: 3})
	checkClassMemo(t, n, "Ruleset.Add raising the largest tag")
	if nt, _ := n.classify(l1, 2, in, out); nt != 3 {
		t.Fatalf("after Add the second bounce classifies tag 2 -> %d, want 3", nt)
	}

	// SetMaxTag alone turns a lossy tag lossless: injection now keeps it.
	tor := g.MustLookup("T1")
	hostPort, upPort := g.PortToPeer(tor, g.MustLookup("H1")), g.PortToPeer(tor, g.MustLookup("L1"))
	if nt, _ := n.classify(tor, 4, hostPort, upPort); nt != core.LossyTag {
		t.Fatalf("tag 4 injects as %d before SetMaxTag, want lossy", nt)
	}
	rs.SetMaxTag(4)
	checkClassMemo(t, n, "SetMaxTag")
	if nt, _ := n.classify(tor, 4, hostPort, upPort); nt != 4 {
		t.Fatalf("tag 4 injects as %d after SetMaxTag, want 4", nt)
	}

	// Arming the flight recorder makes the rule IDs part of the answer.
	n.EnableFlightRecorder(FlightRecConfig{})
	checkClassMemo(t, n, "EnableFlightRecorder")
	if _, id := n.classify(l1, 2, in, out); id < 0 {
		t.Fatalf("armed recorder: bounce rule ID = %d, want the deciding rule", id)
	}

	// A second InstallTagger swaps the authority under a warm memo — here
	// for a ruleset at the same generation, so only the install itself can
	// tell the memo.
	a, b := core.NewRuleset(g, 2), core.NewRuleset(g, 2)
	a.Add(core.Rule{Switch: l1, Tag: 1, In: in, Out: out, NewTag: 2})
	b.Add(core.Rule{Switch: l1, Tag: 1, In: in, Out: out, NewTag: 1})
	if a.Generation() != b.Generation() {
		t.Fatalf("rulesets built alike differ in generation: %d vs %d", a.Generation(), b.Generation())
	}
	n.InstallTagger(a)
	checkClassMemo(t, n, "second InstallTagger")
	n.InstallTagger(b)
	checkClassMemo(t, n, "third InstallTagger, same generation")
}
