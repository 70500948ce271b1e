package deploy

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/paper"
	"repro/internal/tcam"
)

// hostileBundles are inputs that used to reach core's rule-key packing
// and panic there: a tag wider than the key's 8 bits, a negative port.
var hostileBundles = []string{
	`{"switches":{"T1":{"rules":[{"tag":256,"in":0,"out":1,"newTag":1}]}}}`,
	`{"maxTag":2,"switches":{"T1":{"rules":[{"tag":1,"in":-1,"out":1,"newTag":1}]}}}`,
}

// TestImportRejectsOutOfRangeRules: a bundle is external bytes; fields no
// switch table can hold are an error from Import, not a panic in core.
// So is a rule outside the lossless range: one matching the lossy tag (0)
// or a tag above maxTag would otherwise re-promote lossy packets.
func TestImportRejectsOutOfRangeRules(t *testing.T) {
	g := paper.Testbed().Graph
	for _, in := range append(hostileBundles,
		`{"maxTag":256,"switches":{}}`,
		`{"maxTag":-1,"switches":{}}`,
		`{"maxTag":2,"switches":{"T1":{"rules":[{"tag":1,"in":0,"out":1,"newTag":-1}]}}}`,
		`{"maxTag":2,"switches":{"T1":{"rules":[{"tag":1,"in":0,"out":99,"newTag":1}]}}}`,
		`{"maxTag":2,"switches":{"T1":{"rules":[{"tag":1,"in":0,"out":1,"newTag":1},{"tag":1,"in":0,"out":1,"newTag":2}]}}}`,
		// L1 ports 0 and 1 face S1 and S2: a bounce rule on a lossy tag.
		`{"maxTag":2,"switches":{"L1":{"rules":[{"tag":0,"in":0,"out":1,"newTag":1}]}}}`,
		`{"maxTag":2,"switches":{"L1":{"rules":[{"tag":3,"in":0,"out":1,"newTag":1}]}}}`,
		`{"maxTag":2,"switches":{"L1":{"rules":[{"tag":1,"in":0,"out":1,"newTag":3}]}}}`,
	) {
		b, err := Unmarshal([]byte(in))
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		if _, err := Import(g, b); err == nil || !strings.HasPrefix(err.Error(), "deploy: ") {
			t.Errorf("Import(%s) = %v, want a deploy: error", in, err)
		}
	}
}

// FuzzBundleImport: no byte string makes Unmarshal → Import panic, a
// bundle Import accepts comes back out of Export rule for rule, and the
// tables compiled from its compressed TCAM entries decide as
// Ruleset.Classify does at every switch, tag 0..maxTag+1 and port pair.
func FuzzBundleImport(f *testing.F) {
	c := paper.Testbed()
	for _, in := range hostileBundles {
		f.Add([]byte(in))
	}
	// One small bundle Import accepts, so mutation starts beside the
	// round-trip arm too (a full testbed bundle stalls the minimizer).
	f.Add([]byte(`{"maxTag":2,"switches":{"L1":{"rules":[{"tag":1,"in":0,"out":2,"newTag":2},{"tag":1,"in":1,"out":0,"newTag":1}]},"S1":{"rules":[]}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := Unmarshal(data)
		if err != nil {
			return
		}
		rs, err := Import(c.Graph, b)
		if err != nil {
			return
		}
		back := Export(rs)
		for name, sb := range b.Switches {
			want := slices.Clone(sb.Rules)
			sortRules(want)
			if !slices.Equal(want, back.Switches[name].Rules) {
				t.Fatalf("switch %s: imported %v, exported %v", name, want, back.Switches[name].Rules)
			}
		}
		for name := range back.Switches {
			if _, ok := b.Switches[name]; !ok {
				t.Fatalf("export invented switch %s", name)
			}
		}
		entries := tcam.Compress(rs.Rules())
		for _, sw := range c.Graph.Switches() {
			table, np := tcam.CompileEntries(rs, sw, entries), c.Graph.PortCount(sw)
			for tag := 0; tag <= rs.MaxTag()+1; tag++ {
				for in := 0; in < np; in++ {
					for out := 0; out < np; out++ {
						if got, want := int(table.Decide(tag, in, out).NewTag), rs.Classify(sw, tag, in, out); got != want {
							t.Fatalf("%s tag %d in %d out %d: compressed table says %d, Classify %d",
								c.Graph.Node(sw).Name, tag, in, out, got, want)
						}
					}
				}
			}
		}
	})
}
