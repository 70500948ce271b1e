package deploy

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/paper"
)

// hostileBundles are inputs that used to reach core's rule-key packing
// and panic there: a tag wider than the key's 8 bits, a negative port.
var hostileBundles = []string{
	`{"switches":{"T1":{"rules":[{"tag":256,"in":0,"out":1,"newTag":1}]}}}`,
	`{"switches":{"T1":{"rules":[{"tag":1,"in":-1,"out":1,"newTag":1}]}}}`,
}

// TestImportRejectsOutOfRangeRules: a bundle is external bytes; fields no
// switch table can hold are an error from Import, not a panic in core.
func TestImportRejectsOutOfRangeRules(t *testing.T) {
	g := paper.Testbed().Graph
	for _, in := range append(hostileBundles,
		`{"maxTag":256,"switches":{}}`,
		`{"maxTag":-1,"switches":{}}`,
		`{"switches":{"T1":{"rules":[{"tag":1,"in":0,"out":1,"newTag":-1}]}}}`,
		`{"switches":{"T1":{"rules":[{"tag":1,"in":0,"out":99,"newTag":1}]}}}`,
		`{"switches":{"T1":{"rules":[{"tag":1,"in":0,"out":1,"newTag":1},{"tag":1,"in":0,"out":1,"newTag":2}]}}}`,
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

// FuzzBundleImport: no byte string makes Unmarshal → Import panic, and a
// bundle Import accepts comes back out of Export rule for rule.
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
	})
}
