package tcam

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
)

// TestBitmapCompareOrdering: Compare orders by bit set as an unbounded
// integer and is insensitive to trailing zero words on either side.
// TestCompressCanonicalEntries: compressed entries carry canonical
// bitmaps (no trailing zero word), so struct-level equality — what the determinism and
// differential tests use — agrees with logical equality.
func TestCompressCanonicalEntries(t *testing.T) {
	g := topology.New()
	sw := g.AddNode("A", topology.KindSwitch, -1)
	var rules []core.Rule
	for _, in := range []int{0, 1, 64} { // straddles the word boundary
		for _, out := range []int{2, 63, 65} {
			rules = append(rules, core.Rule{Switch: sw, Tag: 1, In: in, Out: out, NewTag: 2})
		}
	}
	a := Compress(rules)
	b := CompressN(rules, 1)
	if !reflect.DeepEqual(a, b) {
		t.Error("identical inputs compressed to non-DeepEqual entries")
	}
	for _, e := range a {
		for _, b := range []Bitmap{e.InPorts, e.OutPorts} {
			if n := len(b.words); n > 0 && b.words[n-1] == 0 {
				t.Errorf("entry %+v carries trailing zero words", e)
			}
		}
	}
}
