package tcam

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/paper"
	"repro/internal/topology"
)

// decideOutcome is what a Decide call did: its cell, or the panic it
// raised.
func decideOutcome(t *Table, tag, in, out int) (s string) {
	defer func() {
		if r := recover(); r != nil {
			s = fmt.Sprint("panic: ", r)
		}
	}()
	return fmt.Sprintf("%+v", t.Decide(tag, in, out))
}

// checkTables holds both compilers to Ruleset.Classify at every
// forwarding node, every tag from 0 to maxTag+1 and every port pair: the
// same rewrite, a rule ID exactly where an exact entry decided, and an ID
// that names the entry that matches.
func checkTables(t *testing.T, rs *core.Ruleset) {
	t.Helper()
	g := rs.Graph()
	exact, rules := Compile(rs)
	entries := CompressN(rs.Rules(), 1)
	for id, tab := range exact {
		sw := topology.NodeID(id)
		if !g.Node(sw).Kind.Forwards() {
			if tab != nil {
				t.Fatalf("host %s has a table", g.Node(sw).Name)
			}
			continue
		}
		comp := CompileEntries(rs, sw, entries)
		np := g.PortCount(sw)
		for tag := 0; tag <= rs.MaxTag()+1; tag++ {
			for in := 0; in < np; in++ {
				for out := 0; out < np; out++ {
					a, b := tab.Decide(tag, in, out), comp.Decide(tag, in, out)
					want := rs.Classify(sw, tag, in, out)
					_, hit := rs.Lookup(sw, tag, in, out)
					hit = hit && rs.IsLossless(tag)
					if int(a.NewTag) != want || int(b.NewTag) != want || (a.Rule >= 0) != hit || (b.Rule >= 0) != hit {
						t.Fatalf("%s tag %d in %d out %d: ruleset table %+v, compressed table %+v, Classify %d (exact hit %v)",
							g.Node(sw).Name, tag, in, out, a, b, want, hit)
					}
					if !hit {
						continue
					}
					if r := rules[a.Rule]; r != (core.Rule{Switch: sw, Tag: tag, In: in, Out: out, NewTag: want}) {
						t.Fatalf("%s tag %d in %d out %d: rule ID %d names %+v", g.Node(sw).Name, tag, in, out, a.Rule, r)
					}
					if e := &entries[b.Rule]; e.Switch != sw || !matches(e, tag, in, out) {
						t.Fatalf("%s tag %d in %d out %d: entry ID %d names %+v", g.Node(sw).Name, tag, in, out, b.Rule, *e)
					}
				}
			}
		}
	}
}

func TestTablesMatchClassify(t *testing.T) {
	c := paper.Testbed()
	checkTables(t, core.ClosRules(c.Graph, 1, 1))
	checkTables(t, core.ClosRules(c.Graph, 2, 1))

	f := paper.NewFig5()
	sys, err := core.Synthesize(f.Graph, f.ELP.Paths(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, sys.Rules)

	// Relay hosts forward, so they get tables; rules whose tag is not
	// lossless, or that sit at a plain host, decide nothing.
	bc, err := topology.NewBCube(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	rs := core.NewRuleset(bc.Graph, 2)
	relay := bc.Servers[0]
	rs.Add(core.Rule{Switch: relay, Tag: 1, In: 0, Out: 1, NewTag: 2})
	rs.Add(core.Rule{Switch: relay, Tag: 0, In: 1, Out: 0, NewTag: 1})
	rs.Add(core.Rule{Switch: bc.Switches[0][0], Tag: 2, In: 0, Out: 1, NewTag: 2})
	checkTables(t, rs)
}

// TestCompileEntriesFirstHit: overlapping entries decide in list order,
// and entries of other switches are skipped.
func TestCompileEntriesFirstHit(t *testing.T) {
	c := paper.Testbed()
	g := c.Graph
	rs := core.NewRuleset(g, 3)
	l1 := g.MustLookup("L1")
	var in, out Bitmap
	in.Set(0)
	in.Set(1)
	out.Set(2)
	entries := []Entry{
		{Switch: g.MustLookup("L2"), Tag: 1, InPorts: in, OutPorts: out, NewTag: 3},
		{Switch: l1, Tag: 1, InPorts: in, OutPorts: out, NewTag: 2},
		{Switch: l1, Tag: 1, InPorts: in, OutPorts: out, NewTag: 1},
	}
	tab := CompileEntries(rs, l1, entries)
	if got := tab.Decide(1, 1, 2); got != (Cell{NewTag: 2, Rule: 1}) {
		t.Fatalf("overlapping entries decide %+v, want the first of L1's", got)
	}
}

// TestDecideOutOfRange: a tag that is not lossless is lossy at any port
// pair; a lossless tag on a port the switch lacks panics instead of
// reading another cell.
func TestDecideOutOfRange(t *testing.T) {
	c := paper.Testbed()
	rs := core.ClosRules(c.Graph, 1, 1)
	tables, _ := Compile(rs)
	l1 := c.Graph.MustLookup("L1")
	tab, np := tables[l1], c.Graph.PortCount(l1)
	lossy := fmt.Sprintf("%+v", Cell{NewTag: core.LossyTag, Rule: -1})
	for _, tag := range []int{-1, 0, rs.MaxTag() + 1, 1 << 20} {
		if got := decideOutcome(tab, tag, -1, np); got != lossy {
			t.Errorf("tag %d on ports (-1, %d): %s, want lossy", tag, np, got)
		}
	}
	for _, p := range [][2]int{{-1, 0}, {0, -1}, {np, 0}, {0, np}} {
		if got := decideOutcome(tab, 1, p[0], p[1]); got[:6] != "panic:" {
			t.Errorf("tag 1 on ports %v: %s, want a panic", p, got)
		}
	}
}
