package check

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
)

// TestRulesetMatchesMapReference drives core.Ruleset and the map-backed
// naiveTable through the same random Add sequences and requires every
// view to agree after each batch: Add's conflict report, Len, Rules,
// RulesAt of every node, MaxTag, Lookup (also off the table: unknown
// nodes, ports past the switch, tags past the rows) and Classify. The
// sequences visit switches in random order, use match tags and rewrites
// 0..8, the highest port of every switch, and re-add installed matches
// with other rewrites.
func TestRulesetMatchesMapReference(t *testing.T) {
	j, err := topology.NewJellyfish(topology.JellyfishConfig{Switches: 12, Ports: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	g := j.Graph
	nodes := g.Nodes()
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		maxTag := 1 + rng.Intn(3)
		rs, ref := core.NewRuleset(g, maxTag), emptyNaiveTable(g, maxTag)
		var added []core.Rule
		for batch := 0; batch < 8; batch++ {
			for i := 0; i < 40; i++ {
				var r core.Rule
				if len(added) > 0 && rng.Intn(4) == 0 {
					r = added[rng.Intn(len(added))] // the same match again
				} else {
					r.Switch = nodes[rng.Intn(len(nodes))]
					np := g.PortCount(r.Switch)
					r.Tag, r.In, r.Out = rng.Intn(9), rng.Intn(np), rng.Intn(np)
					if rng.Intn(3) == 0 {
						r.In = np - 1
					}
					if rng.Intn(3) == 0 {
						r.Out = np - 1
					}
				}
				r.NewTag = rng.Intn(9)
				gotOld, gotConf := rs.Add(r)
				wantOld, wantConf := ref.add(r)
				if gotOld != wantOld || gotConf != wantConf {
					t.Fatalf("seed %d: Add(%+v) = %d,%v, reference %d,%v", seed, r, gotOld, gotConf, wantOld, wantConf)
				}
				added = append(added, r)
			}
			compareRuleTables(t, g, rs, ref, rng)
		}
	}
}

// compareRuleTables holds every view of rs to the reference.
func compareRuleTables(t *testing.T, g *topology.Graph, rs *core.Ruleset, ref *naiveTable, rng *rand.Rand) {
	t.Helper()
	if rs.Len() != len(ref.rules) || rs.MaxTag() != ref.maxTag {
		t.Fatalf("Len %d MaxTag %d, reference %d %d", rs.Len(), rs.MaxTag(), len(ref.rules), ref.maxTag)
	}
	want := ref.sortedRules(func(topology.NodeID) bool { return true })
	if got := rs.Rules(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Rules() differs from the reference (%d vs %d rules)", len(got), len(want))
	}
	for _, n := range append(g.Nodes(), topology.NodeID(g.NumNodes()), topology.NodeID(g.NumNodes()+7)) {
		want := ref.sortedRules(func(sw topology.NodeID) bool { return sw == n })
		if got := rs.RulesAt(n); !reflect.DeepEqual(got, want) {
			t.Fatalf("RulesAt(%d) = %v, reference %v", n, got, want)
		}
	}
	for i := 0; i < 500; i++ {
		sw := topology.NodeID(rng.Intn(g.NumNodes()))
		np := g.PortCount(sw)
		tag, in, out := rng.Intn(12), rng.Intn(np), rng.Intn(np)
		if got, want := rs.Classify(sw, tag, in, out), ref.classify(sw, tag, in, out); got != want {
			t.Fatalf("Classify(%d, %d, %d, %d) = %d, reference %d", sw, tag, in, out, got, want)
		}
		// Lookup also off the table.
		switch rng.Intn(6) {
		case 0:
			in = np + rng.Intn(3)
		case 1:
			out = -1 - rng.Intn(2)
		case 2:
			sw = topology.NodeID(g.NumNodes() + rng.Intn(3))
		case 3:
			tag = 256 + rng.Intn(3)
		}
		gotNT, gotOK := rs.Lookup(sw, tag, in, out)
		wantNT, wantOK := ref.lookup(sw, tag, in, out)
		if gotNT != wantNT || gotOK != wantOK {
			t.Fatalf("Lookup(%d, %d, %d, %d) = %d,%v, reference %d,%v", sw, tag, in, out, gotNT, gotOK, wantNT, wantOK)
		}
	}
}
