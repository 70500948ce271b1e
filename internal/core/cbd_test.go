package core

import (
	"errors"
	"testing"

	"repro/internal/elp"
	"repro/internal/paper"
	"repro/internal/routing"
	"repro/internal/topology"
)

// These are the paper's cyclic-buffer-dependency figures, stated on the
// one tagged graph: a buffer dependency is an edge between (ingress port,
// priority) vertices, a CBD is a same-tag cycle, and Verify's witness
// (VerifyError.Cycle) is the CBD itself.

// oneClass is the world without Tagger: all lossless traffic shares
// priority 1, so every vertex the paths touch carries tag 1. Under Tagger
// the graph is BuildRuleGraph's replay of the same paths.
func oneClass(g *topology.Graph, paths []routing.Path) *TaggedGraph {
	tg := NewTaggedGraph(g)
	for _, p := range paths {
		for i := 2; i < len(p); i++ {
			tg.AddEdge(TagNode{ingressPortID(g, p[i-2], p[i-1]), 1},
				TagNode{ingressPortID(g, p[i-1], p[i]), 1})
		}
	}
	return tg
}

// findCBD returns Verify's witness cycle, or nil when tg has no CBD.
func findCBD(t *testing.T, tg *TaggedGraph) []TagNode {
	t.Helper()
	err := tg.Verify()
	if err == nil {
		return nil
	}
	var ve *VerifyError
	if !errors.As(err, &ve) || ve.Requirement != 1 || len(ve.Cycle) == 0 {
		t.Fatalf("Verify = %v, want nil or a requirement-1 witness", err)
	}
	for i, n := range ve.Cycle {
		if next := ve.Cycle[(i+1)%len(ve.Cycle)]; !tg.HasEdge(n, next) {
			t.Fatalf("witness %v: %s -> %s is not an edge", err, tg.NodeString(n), tg.NodeString(next))
		}
	}
	return ve.Cycle
}

// TestFigure1CBD reproduces the paper's Figure 1: three switches in a
// triangle, three flows each crossing two switches, cyclic buffer
// dependency A -> B -> C -> A with no routing loop.
func TestFigure1CBD(t *testing.T) {
	g := topology.New()
	a := g.AddNode("A", topology.KindSwitch, -1)
	b := g.AddNode("B", topology.KindSwitch, -1)
	c := g.AddNode("C", topology.KindSwitch, -1)
	// Hosts sourcing/sinking each flow.
	ha := g.AddNode("Ha", topology.KindHost, 0)
	hb := g.AddNode("Hb", topology.KindHost, 0)
	hc := g.AddNode("Hc", topology.KindHost, 0)
	g.Connect(a, b)
	g.Connect(b, c)
	g.Connect(c, a)
	g.Connect(ha, a)
	g.Connect(hb, b)
	g.Connect(hc, c)

	// Each flow crosses two inter-switch links so that consecutive flows
	// share ingress queues: flow 1 occupies (B, from A) and waits on
	// (C, from B); flow 2 occupies (C, from B) and waits on (A, from C);
	// flow 3 occupies (A, from C) and waits on (B, from A) — the cycle of
	// the figure.
	paths := []routing.Path{
		{ha, a, b, c, hc},
		{hb, b, c, a, ha},
		{hc, c, a, b, hb},
	}
	tg := oneClass(g, paths)
	cyc := findCBD(t, tg)
	if cyc == nil {
		t.Fatal("Figure 1 CBD not detected")
	}
	if len(cyc) != 3 {
		t.Errorf("cycle length = %d, want 3 (%v)", len(cyc), tg.Verify())
	}
}

// TestFigure3OneBounceCBD reproduces Figure 3: the two 1-bounce flows on
// the testbed Clos create the CBD L1 -> S1 -> L3 -> S2 -> L1 despite both
// paths being loop-free.
func TestFigure3OneBounceCBD(t *testing.T) {
	c := paper.Testbed()
	g := c.Graph
	paths := []routing.Path{paper.Fig3GreenPath(c), paper.Fig3BluePath(c)}
	for _, p := range paths {
		if !p.LoopFree() {
			t.Fatalf("path %s is not loop-free; the point of Fig 3 is CBD without loops", p.String(g))
		}
	}
	tg := oneClass(g, paths)
	cyc := findCBD(t, tg)
	if cyc == nil {
		t.Fatal("Figure 3 CBD not detected")
	}
	if len(cyc) != 4 {
		t.Errorf("cycle length = %d, want 4: %v", len(cyc), tg.Verify())
	}
}

// TestFigure3TaggerBreaksCBD: under the Clos k=1 tagging rules the same
// two paths produce an acyclic dependency graph — the bounce moves the
// post-bounce segment into priority 2.
func TestFigure3TaggerBreaksCBD(t *testing.T) {
	c := paper.Testbed()
	paths := []routing.Path{paper.Fig3GreenPath(c), paper.Fig3BluePath(c)}
	tg, _ := BuildRuleGraph(ClosRules(c.Graph, 1, 1), paths, 1)
	if err := tg.Verify(); err != nil {
		t.Fatalf("CBD under Tagger: %v", err)
	}
}

// TestZeroBounceNoCBD: pure up-down traffic has no CBD even in a single
// priority.
func TestZeroBounceNoCBD(t *testing.T) {
	c := paper.Testbed()
	s := elp.UpDownAll(c.Graph, c.ToRs)
	tg := oneClass(c.Graph, s.Paths())
	if findCBD(t, tg) != nil {
		t.Fatal("up-down traffic should have no CBD")
	}
	if tg.NumEdges() == 0 {
		t.Fatal("expected some dependencies")
	}
}

// TestAllOneBouncePathsTaggerVsNot: the full 1-bounce ELP in one priority
// contains CBDs; under Clos tagging it does not. This is the paper's core
// claim quantified over the whole path set rather than one example.
func TestAllOneBouncePathsTaggerVsNot(t *testing.T) {
	c := paper.Testbed()
	g := c.Graph
	s := elp.KBounce(g, c.ToRs, 1, nil)

	if findCBD(t, oneClass(g, s.Paths())) == nil {
		t.Fatal("1-bounce ELP without Tagger should contain a CBD")
	}
	tagged, _ := BuildRuleGraph(ClosRules(g, 1, 1), s.Paths(), 1)
	if err := tagged.Verify(); err != nil {
		t.Fatalf("CBD under Tagger: %v", err)
	}
}

// TestRoutingLoopLossyNoDependency: a looping path classified lossy
// contributes no dependencies at the lossy hops, so no CBD forms even
// though the trajectory cycles (the Fig 11 safety argument).
func TestRoutingLoopLossyNoDependency(t *testing.T) {
	c := paper.Testbed()
	g := c.Graph
	n := func(name string) topology.NodeID { return g.MustLookup(name) }
	// A trajectory that ping-pongs T1 <-> L1 (routing loop). Not loop-free
	// as a path, but the replay models trajectories, not ELP.
	loop := []routing.Path{{n("T2"), n("L1"), n("T1"), n("L1"), n("T1"), n("L1"), n("T1")}}
	tg, lossy := BuildRuleGraph(ClosRules(g, 1, 1), loop, 1)
	if len(lossy) != 1 {
		t.Fatal("the loop's second bounce should have gone lossy")
	}
	if err := tg.Verify(); err != nil {
		t.Fatalf("lossy loop produced a CBD: %v", err)
	}
	// Without Tagger the same trajectory in one lossless priority IS a CBD.
	if findCBD(t, oneClass(g, loop)) == nil {
		t.Fatal("loop without Tagger should be a CBD")
	}
}

func TestShortPathsContributeNothing(t *testing.T) {
	c := paper.Testbed()
	tg := oneClass(c.Graph, []routing.Path{{c.ToRs[0], c.Leaves[0]}})
	if tg.NumEdges() != 0 {
		t.Error("2-node path should add no dependencies")
	}
}

func TestAddDependencyIdempotent(t *testing.T) {
	c := paper.Testbed()
	tg := NewTaggedGraph(c.Graph)
	q1 := TagNode{Port: c.Graph.PortOn(c.Leaves[0], 0), Tag: 1}
	q2 := TagNode{Port: c.Graph.PortOn(c.Leaves[1], 0), Tag: 1}
	tg.AddEdge(q1, q2)
	tg.AddEdge(q1, q2)
	if tg.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", tg.NumEdges())
	}
	if findCBD(t, tg) != nil {
		t.Error("no cycle expected")
	}
	tg.AddEdge(q2, q1)
	if got := len(findCBD(t, tg)); got != 2 {
		t.Errorf("2-cycle: witness length %d, want 2", got)
	}
}
