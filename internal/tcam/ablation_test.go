package tcam

import (
	"testing"

	"repro/internal/core"
	"repro/internal/elp"
	"repro/internal/paper"
)

func TestCompressionLevelsOrdering(t *testing.T) {
	// §7: every level strictly helps on the Clos rule set, and the
	// ordering exact >= in-port-only >= joint always holds.
	c := paper.Testbed()
	rs := core.ClosRules(c.Graph, 1, 1)
	lv := Levels(rs.Rules())
	if !(lv.Exact >= lv.InPortOnly && lv.InPortOnly >= lv.Joint) {
		t.Fatalf("levels out of order: %+v", lv)
	}
	if lv.InPortOnly >= lv.Exact {
		t.Errorf("in-port aggregation did not help: %+v", lv)
	}
	if lv.Joint >= lv.InPortOnly {
		t.Errorf("joint aggregation did not help: %+v", lv)
	}
}

func TestCompressInPortOnlySemantics(t *testing.T) {
	// Stage 1 alone must also be exact: same lookups as the rules.
	f := paper.NewFig5()
	sys, err := core.Synthesize(f.Graph, f.ELP.Paths(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	entries := CompressInPortOnly(sys.Rules.Rules())
	for _, r := range sys.Rules.Rules() {
		got, ok := scan(entries, r.Switch, r.Tag, r.In, r.Out)
		if !ok || got != r.NewTag {
			t.Fatalf("rule %+v: lookup %d,%v", r, got, ok)
		}
	}
	// And no false positives on a sampled grid.
	g := f.Graph
	for _, sw := range g.Switches() {
		for tag := 1; tag <= sys.Rules.MaxTag(); tag++ {
			for in := 0; in < g.PortCount(sw); in++ {
				for out := 0; out < g.PortCount(sw); out++ {
					_, okE := scan(entries, sw, tag, in, out)
					_, okR := sys.Rules.Lookup(sw, tag, in, out)
					if okE != okR {
						t.Fatalf("coverage differs at %s tag=%d in=%d out=%d",
							g.Node(sw).Name, tag, in, out)
					}
				}
			}
		}
	}
}

func TestLevelsOnLargerELP(t *testing.T) {
	c := paper.Testbed()
	set := elp.KBounce(c.Graph, c.ToRs, 2, nil)
	sys, err := core.ClosSynthesize(c.Graph, set.Paths(), 2)
	if err != nil {
		t.Fatal(err)
	}
	lv := Levels(sys.Rules.Rules())
	if lv.Joint == 0 || lv.Exact == 0 {
		t.Fatalf("degenerate levels: %+v", lv)
	}
	// The paper's headline factor: in-port aggregation alone divides the
	// count by about (n-1); joint goes further. Assert at least 2x total.
	if lv.Joint*2 > lv.Exact {
		t.Errorf("compression below 2x: %+v", lv)
	}
}
