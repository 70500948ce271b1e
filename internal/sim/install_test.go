package sim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/paper"
	"repro/internal/routing"
	"repro/internal/tcam"
	"repro/internal/topology"
)

// checkInstalled compares the installed pipelines' full decision with
// the ruleset at every node, tag 0..maxTag+1 and port pair, with the
// egress queue chosen by the new tag and by the old one (Figure 8a):
// the ingress queue, the egress queue, the rewrite, and the deciding
// rule's ID exactly where an exact rule decided. The queue mapping is
// written out here, not taken from tcam: lossless tag t rides queue t,
// anything else queue 0. A host rewrites nothing.
func checkInstalled(t *testing.T, n *Network, rs *core.Ruleset, after string) {
	t.Helper()
	queue := func(tag int) int {
		if rs.IsLossless(tag) {
			return tag
		}
		return 0
	}
	for _, legacy := range []bool{false, true} {
		for id := range n.nodes {
			pl := n.pl[id] // a copy: the installed mode is left alone
			pl.LegacyEgressByOldTag = legacy
			sw := topology.NodeID(id)
			np := len(n.nodes[id].ports)
			for tag := 0; tag <= rs.MaxTag()+1; tag++ {
				for in := 0; in < np; in++ {
					for out := 0; out < np; out++ {
						want := tcam.QueueDecision{NewTag: tag, Rule: -1}
						_, hit := rs.Lookup(sw, tag, in, out)
						hit = hit && rs.IsLossless(tag) && !n.nodes[id].isHost
						if !n.nodes[id].isHost {
							want.NewTag = rs.Classify(sw, tag, in, out)
						}
						want.IngressQueue = queue(tag)
						want.EgressQueue = queue(want.NewTag)
						if legacy && want.NewTag != core.LossyTag {
							want.EgressQueue = queue(tag)
						}
						got := pl.Process(tag, in, out)
						if hit {
							r := core.Rule{Switch: sw, Tag: tag, In: in, Out: out, NewTag: want.NewTag}
							if got.Rule < 0 || int(got.Rule) >= len(n.ruleByID) || n.ruleByID[got.Rule] != r {
								t.Fatalf("after %s: rule ID %d at (%s, tag %d, in %d, out %d) does not name %+v",
									after, got.Rule, n.nodeName(sw), tag, in, out, r)
							}
							want.Rule = got.Rule
						}
						if got != want {
							t.Fatalf("after %s (legacy %v): pipeline(%s, tag %d, in %d, out %d) = %+v, ruleset says %+v (exact hit %v)",
								after, legacy, n.nodeName(sw), tag, in, out, got, want, hit)
						}
					}
				}
			}
		}
	}
}

// TestInstalledTableMatchesClassify: InstallTagger builds a snapshot of
// the rules whose pipelines decide as Ruleset.Classify does in both
// egress modes; installing again swaps the decisions, arming the flight
// recorder changes none of them, a port the switch lacks still panics,
// a ruleset with more tags than Config.MaxPriority queues is refused,
// and InstallTagger(nil) is the no-Tagger baseline.
func TestInstalledTableMatchesClassify(t *testing.T) {
	c := paper.Testbed()
	g := c.Graph
	tb := routing.ComputeToHosts(g, routing.UpDown)
	n := New(g, tb, DefaultConfig())
	rs := core.ClosRules(g, 1, 1)
	n.InstallTagger(rs)
	checkInstalled(t, n, rs, "InstallTagger")

	// The bounce at L1 (down from S1, back up to S2) bumps tag 1 to 2.
	l1 := g.MustLookup("L1")
	in, out := g.PortToPeer(l1, g.MustLookup("S1")), g.PortToPeer(l1, g.MustLookup("S2"))
	if got := n.pl[l1].Process(1, in, out); got.NewTag != 2 || got.EgressQueue != 2 || got.Rule < 0 {
		t.Fatalf("bounce at L1 decides %+v, want tag 2 in queue 2 by a rule", got)
	}

	// A snapshot: changing the ruleset changes nothing until it is
	// installed again, and then the new decision shows.
	rs.Add(core.Rule{Switch: l1, Tag: 1, In: in, Out: out, NewTag: 1})
	if got := n.pl[l1].Process(1, in, out); got.NewTag != 2 {
		t.Fatalf("installed pipeline followed a later Add: %+v", got)
	}
	n.InstallTagger(rs)
	checkInstalled(t, n, rs, "second InstallTagger")
	if got := n.pl[l1].Process(1, in, out); got.NewTag != 1 {
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
			n.pl[l1].Process(1, p[0], p[1])
		}()
	}

	// Tags 1..2 need two lossless queues: one is refused, naming the
	// setting, like New's own guard.
	func() {
		cfg := DefaultConfig()
		cfg.MaxPriority = 1
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "MaxPriority") {
				t.Errorf("a 2-tag ruleset on MaxPriority 1 recovered %v, want a panic naming MaxPriority", r)
			}
		}()
		New(g, tb, cfg).InstallTagger(rs)
	}()

	// Without Tagger every tag up to MaxPriority rides its own queue and
	// keeps its value; above it, the lossy queue.
	n.InstallTagger(nil)
	maxPrio := DefaultConfig().MaxPriority
	for _, tag := range []int{1, maxPrio, maxPrio + 1} {
		q := tag
		if tag > maxPrio {
			q = 0
		}
		want := tcam.QueueDecision{IngressQueue: q, EgressQueue: q, NewTag: tag, Rule: -1}
		if got := n.pl[l1].Process(tag, in, out); got != want || n.ruleByID != nil {
			t.Fatalf("InstallTagger(nil): tag %d decides %+v, want %+v (%d rules left)", tag, got, want, len(n.ruleByID))
		}
	}
}
