package check

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/deploy"
)

// refExport is deploy.Export as it was before it walked the ruleset's
// rows: Rules() materialized, then copied run by run into one backing
// array. Kept as the reference for the bundle Export builds.
func refExport(rs *core.Ruleset) *deploy.Bundle {
	g := rs.Graph()
	b := &deploy.Bundle{MaxTag: rs.MaxTag(), Switches: make(map[string]deploy.SwitchBundle)}
	rules := rs.Rules()
	all := make([]deploy.RuleJSON, len(rules))
	for lo := 0; lo < len(rules); {
		sw := rules[lo].Switch
		hi := lo
		for ; hi < len(rules) && rules[hi].Switch == sw; hi++ {
			r := rules[hi]
			all[hi] = deploy.RuleJSON{Tag: r.Tag, In: r.In, Out: r.Out, NewTag: r.NewTag}
		}
		b.Switches[g.Node(sw).Name] = deploy.SwitchBundle{Rules: all[lo:hi:hi]}
		lo = hi
	}
	return b
}

// TestRulesetEachAndExportMatchRules: on every GenCase fabric, for the
// synthesized rules (and on a Clos the bounce scheme's), Ruleset.Each
// yields exactly Rules() in order, and deploy.Export's bundle and its
// Marshal bytes equal those built from Rules().
func TestRulesetEachAndExportMatchRules(t *testing.T) {
	fabrics, rules := 0, 0
	for _, topo := range Topos() {
		for seed := int64(1); seed <= 8; seed++ {
			c := GenCase(topo, seed)
			f, err := c.build()
			if err != nil {
				continue // the fuzzer skips unbuildable seeds too
			}
			sys, err := core.Synthesize(f.g, c.elp(f).Paths(), core.Options{Workers: 1})
			if err != nil {
				t.Fatalf("%s: %v", c, err)
			}
			fabrics++
			rulesets := []*core.Ruleset{sys.Rules, core.NewRuleset(f.g, 1)}
			if topo == "clos" {
				rulesets = append(rulesets, core.ClosRules(f.g, c.MaxBounces, 1))
			}
			for _, rs := range rulesets {
				var each []core.Rule
				rs.Each(func(r core.Rule) { each = append(each, r) })
				rules += len(each)
				if want := rs.Rules(); len(each) != len(want) || (len(want) > 0 && !reflect.DeepEqual(each, want)) {
					t.Fatalf("%s: Each yields %d rules, Rules() %d, or another order", c, len(each), len(want))
				}
				got, want := deploy.Export(rs), refExport(rs)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Export's bundle differs from the one built from Rules()", c)
				}
				gb, err := got.Marshal()
				if err != nil {
					t.Fatal(err)
				}
				wb, err := want.Marshal()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gb, wb) {
					t.Fatalf("%s: Marshal bytes differ from the bundle built from Rules()", c)
				}
			}
		}
	}
	if fabrics < 3*len(Topos()) || rules == 0 {
		t.Fatalf("only %d fabrics built, %d rules walked", fabrics, rules)
	}
	t.Logf("%d fabrics, %d rules", fabrics, rules)
}
