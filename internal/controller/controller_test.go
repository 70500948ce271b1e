package controller

import (
	"testing"

	"repro/internal/chaos"
	"repro/internal/check"
	"repro/internal/elp"
	"repro/internal/paper"
	"repro/internal/topology"
)

func TestControllerDeploysVerifiedSystem(t *testing.T) {
	c := paper.Testbed()
	ctl, err := NewClos(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys := ctl.System()
	if sys == nil || sys.NumLosslessQueues() != 2 {
		t.Fatalf("deployed system: %+v", sys)
	}
	if ctl.Bundle() == nil || len(ctl.Bundle().Switches) == 0 {
		t.Fatal("no bundle")
	}
}

// constructors builds each controller kind over a paper testbed with the
// 1-bounce policy.
var constructors = []struct {
	name  string
	build func(c *topology.Clos, opts ...Option) (*Controller, error)
}{
	{"clos", func(c *topology.Clos, opts ...Option) (*Controller, error) { return NewClos(c, 1, opts...) }},
	{"generic", func(c *topology.Clos, opts ...Option) (*Controller, error) {
		return NewGeneric(c.Graph, KBouncePolicy(func() []topology.NodeID { return c.ToRs }, 1), opts...)
	}},
	{"churn", func(c *topology.Clos, opts ...Option) (*Controller, error) {
		return NewChurn(c.Graph, KBouncePolicy(func() []topology.NodeID { return c.ToRs }, 1), opts...)
	}},
}

// TestFailuresAreRuleNoOps encodes the paper's core operational property:
// the rule plane does not move when links fail or recover, on any
// controller. A link event marks the graph and is counted; it makes no
// agent RPC, records no diff or delta push, and keeps the bundle.
func TestFailuresAreRuleNoOps(t *testing.T) {
	for _, row := range constructors {
		t.Run(row.name, func(t *testing.T) {
			c := paper.Testbed()
			g := c.Graph
			fab := chaos.NewFabric(switchNames(g))
			ctl, err := row.build(c, WithAgent(fab))
			if err != nil {
				t.Fatal(err)
			}
			bundle, rpcs := ctl.Bundle(), len(ctl.Audit())
			events := []Event{
				{Kind: EventLinkDown, A: g.MustLookup("L1"), B: g.MustLookup("T1")},
				{Kind: EventLinkDown, A: g.MustLookup("L3"), B: g.MustLookup("T4")},
				{Kind: EventLinkUp, A: g.MustLookup("L1"), B: g.MustLookup("T1")},
			}
			for _, ev := range events {
				if err := ctl.Handle(ev); err != nil {
					t.Fatal(err)
				}
			}
			if ctl.FailureCount() != 3 {
				t.Errorf("FailureCount = %d", ctl.FailureCount())
			}
			if !g.LinkBetween(g.MustLookup("L3"), g.MustLookup("T4")).Failed {
				t.Error("link-down did not mark the graph")
			}
			if n := len(ctl.Audit()) - rpcs; n != 0 {
				t.Errorf("failures made %d agent RPCs", n)
			}
			if len(ctl.Diffs()) != 0 || len(ctl.DeltaLog()) != 0 {
				t.Fatalf("failures pushed %d rule diffs, %d delta pushes; Tagger rules must be static",
					len(ctl.Diffs()), len(ctl.DeltaLog()))
			}
			if ctl.Bundle() != bundle {
				t.Error("failures replaced the bundle")
			}
		})
	}
}

// TestExpansionPushesIncrementalBundle: adding a pod updates only the new
// switches and the spines' new ports.
func TestExpansionPushesIncrementalBundle(t *testing.T) {
	c := paper.Testbed()
	ctl, err := NewClos(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := c.Graph
	oldSwitches := map[string]bool{}
	for _, sw := range g.Switches() {
		oldSwitches[g.Node(sw).Name] = true
	}
	spines := map[string]bool{}
	for _, s := range c.Spines {
		spines[g.Node(s).Name] = true
	}

	if err := c.Expand(1); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Handle(Event{Kind: EventExpansion}); err != nil {
		t.Fatal(err)
	}
	if len(ctl.Diffs()) != 1 {
		t.Fatalf("diffs pushed = %d, want 1", len(ctl.Diffs()))
	}
	for name := range ctl.Diffs()[0] {
		if oldSwitches[name] && !spines[name] {
			t.Errorf("expansion touched old non-spine switch %s", name)
		}
	}
	// The new deployment is verified and still 2 queues.
	if got := ctl.System().NumLosslessQueues(); got != 2 {
		t.Errorf("queues after expansion = %d", got)
	}
}

// TestExpansionUnderFailureKeepsIntactELP: growth handled while a link is
// down must still deploy rules for the intact fabric's ELP. After the
// link recovers, every path of the expanded fabric's ELP is lossless and
// the system passes the oracle, on every controller.
func TestExpansionUnderFailureKeepsIntactELP(t *testing.T) {
	for _, row := range constructors {
		for _, link := range [][2]string{{"S1", "L1"}, {"L1", "T1"}} {
			t.Run(row.name+"/"+link[0]+"-"+link[1], func(t *testing.T) {
				c := paper.Testbed()
				g := c.Graph
				ctl, err := row.build(c)
				if err != nil {
					t.Fatal(err)
				}
				down := Event{Kind: EventLinkDown, A: g.MustLookup(link[0]), B: g.MustLookup(link[1])}
				if err := ctl.Handle(down); err != nil {
					t.Fatal(err)
				}
				if err := c.Expand(1); err != nil {
					t.Fatal(err)
				}
				if err := ctl.Handle(Event{Kind: EventExpansion}); err != nil {
					t.Fatal(err)
				}
				up := down
				up.Kind = EventLinkUp
				if err := ctl.Handle(up); err != nil {
					t.Fatal(err)
				}

				sys := ctl.System()
				want := elp.KBounce(g, c.ToRs, 1, nil).Paths()
				lossy := 0
				for _, p := range want {
					if !sys.Rules.Replay(p, 1).Lossless {
						lossy++
					}
				}
				if lossy != 0 {
					t.Errorf("%d of %d intact-ELP paths are lossy", lossy, len(want))
				}
				if len(sys.ELP) != len(want) {
					t.Errorf("deployed ELP has %d paths, the intact fabric's %d", len(sys.ELP), len(want))
				}
				if err := check.VerifySystem(sys); err != nil {
					t.Errorf("oracle: %v", err)
				}
			})
		}
	}
}

func TestUnknownEvent(t *testing.T) {
	c := paper.Testbed()
	ctl, err := NewClos(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	// "meteor" is no longer expressible at compile time; the runtime
	// error path survives for zero-valued and decoded-but-invalid kinds.
	if err := ctl.Handle(Event{}); err == nil {
		t.Fatal("zero-kind event accepted")
	}
	for k, name := range map[EventKind]string{
		EventLinkDown: "link-down", EventLinkUp: "link-up", EventExpansion: "expansion",
		EventSwitchDrain: "switch-drain", EventSwitchUndrain: "switch-undrain",
	} {
		if k.String() != name {
			t.Errorf("%d renders as %q, want %q", int(k), k, name)
		}
	}
}

func TestGenericController(t *testing.T) {
	j, err := topology.NewJellyfish(topology.JellyfishConfig{Switches: 20, Ports: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	policy := func(g *topology.Graph) *elp.Set {
		return elp.ShortestAll(g, j.Switches)
	}
	ctl, err := NewGeneric(j.Graph, policy)
	if err != nil {
		t.Fatal(err)
	}
	if ctl.System().Runtime.NumSwitchTags() > 3 {
		t.Errorf("jellyfish-20 tags = %d", ctl.System().Runtime.NumSwitchTags())
	}
	// Failure: no rule churn, same as Clos.
	a, b := j.Switches[0], j.Switches[1]
	if err := ctl.Handle(Event{Kind: EventLinkDown, A: a, B: b}); err != nil {
		t.Fatal(err)
	}
	if len(ctl.Diffs()) != 0 {
		t.Fatal("generic controller pushed diffs on failure")
	}
}
