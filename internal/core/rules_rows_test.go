package core

import (
	"testing"

	"repro/internal/topology"
)

// TestRulesetAddRejectsOutOfTopology: a rule the dense rows cannot hold —
// a port the switch does not have, an unknown node, a match tag past the
// 8-bit field, a rewrite outside a cell — panics in Add instead of
// landing in some other cell. The switch's highest port and the largest
// tag and rewrite are accepted.
func TestRulesetAddRejectsOutOfTopology(t *testing.T) {
	j, err := topology.NewJellyfish(topology.JellyfishConfig{Switches: 20, Ports: 24, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := j.Graph
	sw := j.Switches[0]
	np := g.PortCount(sw)
	if np != 24 {
		t.Fatalf("fixture switch has %d ports, want 24", np)
	}
	cases := []struct {
		name string
		r    Rule
		ok   bool
	}{
		{"highest port both sides", Rule{Switch: sw, Tag: 1, In: np - 1, Out: np - 1, NewTag: 2}, true},
		{"largest tag and rewrite", Rule{Switch: sw, Tag: maxMatchTag, In: 0, Out: 1, NewTag: maxNewTag}, true},
		{"tag 0, rewrite 0", Rule{Switch: sw, Tag: 0, In: 0, Out: 1, NewTag: 0}, true},
		{"ingress port 30 on 24", Rule{Switch: sw, Tag: 1, In: 30, Out: 1, NewTag: 1}, false},
		{"egress one past the last", Rule{Switch: sw, Tag: 1, In: 0, Out: np, NewTag: 1}, false},
		{"negative ingress", Rule{Switch: sw, Tag: 1, In: -1, Out: 1, NewTag: 1}, false},
		{"unknown node", Rule{Switch: topology.NodeID(g.NumNodes()), Tag: 1, In: 0, Out: 1, NewTag: 1}, false},
		{"negative node", Rule{Switch: -1, Tag: 1, In: 0, Out: 1, NewTag: 1}, false},
		{"tag 256", Rule{Switch: sw, Tag: maxMatchTag + 1, In: 0, Out: 1, NewTag: 1}, false},
		{"negative tag", Rule{Switch: sw, Tag: -1, In: 0, Out: 1, NewTag: 1}, false},
		{"rewrite past a cell", Rule{Switch: sw, Tag: 1, In: 0, Out: 1, NewTag: maxNewTag + 1}, false},
		{"negative rewrite", Rule{Switch: sw, Tag: 1, In: 0, Out: 1, NewTag: -1}, false},
	}
	for _, tc := range cases {
		rs := NewRuleset(g, 2)
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			rs.Add(tc.r)
			return false
		}()
		if panicked == tc.ok {
			t.Errorf("%s: Add(%+v) panicked = %v", tc.name, tc.r, panicked)
			continue
		}
		if tc.ok {
			if nt, hit := rs.Lookup(tc.r.Switch, tc.r.Tag, tc.r.In, tc.r.Out); !hit || nt != tc.r.NewTag || rs.Len() != 1 {
				t.Errorf("%s: Lookup = %d,%v Len = %d after Add", tc.name, nt, hit, rs.Len())
			}
		} else if rs.Len() != 0 {
			t.Errorf("%s: rejected rule counted", tc.name)
		}
	}
}
