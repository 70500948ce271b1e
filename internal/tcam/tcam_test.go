package tcam

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/paper"
	"repro/internal/topology"
)

// scan walks entries in order and returns the first match — TCAM
// first-hit semantics, written as a scan to check the compiled tables
// and the compressor against. ok is false when no entry fires.
func scan(entries []Entry, sw topology.NodeID, tag, in, out int) (newTag int, ok bool) {
	for i := range entries {
		if entries[i].Switch == sw && matches(&entries[i], tag, in, out) {
			return entries[i].NewTag, true
		}
	}
	return 0, false
}

// matches reports whether the entry fires for (tag, in, out).
func matches(e *Entry, tag, in, out int) bool {
	return e.Tag == tag && get(e.InPorts, in) && get(e.OutPorts, out)
}

// get reports bit i.
func get(b Bitmap, i int) bool {
	w := i / 64
	if w >= len(b.words) {
		return false
	}
	return b.words[w]&(1<<uint(i%64)) != 0
}

// count returns the number of set bits.
func count(b Bitmap) int { return len(b.appendPorts(nil)) }

// The paper's §7 per-switch rule-count bounds for n ports and m tags:
// uncompressed n(n-1)·m(m-1)/2, and n·m(m-1)/2 after InPort aggregation.
func uncompressedBound(n, m int) int     { return n * (n - 1) * m * (m - 1) / 2 }
func inPortAggregatedBound(n, m int) int { return n * m * (m - 1) / 2 }

func TestBitmapBasics(t *testing.T) {
	var b Bitmap
	if get(b, 5) || count(b) != 0 {
		t.Error("zero bitmap should be empty")
	}
	b.Set(0)
	b.Set(2)
	b.Set(1)
	if !get(b, 0) || !get(b, 1) || !get(b, 2) || get(b, 3) {
		t.Error("Get wrong")
	}
	if count(b) != 3 {
		t.Errorf("Count = %d", count(b))
	}
	ports := b.appendPorts(nil)
	if len(ports) != 3 || ports[0] != 0 || ports[2] != 2 {
		t.Errorf("Ports = %v", ports)
	}
	b.Set(200) // grows
	if !get(b, 200) || count(b) != 4 {
		t.Error("growth broken")
	}
}

func TestBitmapEqualAndKey(t *testing.T) {
	var a, b Bitmap
	a.Set(3)
	b.Set(3)
	if a.Key() != b.Key() {
		t.Error("equal bitmaps differ")
	}
	b.Set(70)
	if a.Key() == b.Key() {
		t.Error("different bitmaps equal")
	}
	// Trailing zero words do not affect equality or keys.
	var c Bitmap
	c.Set(3)
	c.Set(100)
	var d Bitmap
	d.Set(100)
	d.Set(3)
	if c.Key() != d.Key() {
		t.Error("canonicalization broken")
	}
}

func TestCompressFig9(t *testing.T) {
	// Figure 9: three rules identical except InPort merge into one entry.
	g := topology.New()
	sw := g.AddNode("A", topology.KindSwitch, -1)
	rules := []core.Rule{
		{Switch: sw, Tag: 1, In: 0, Out: 3, NewTag: 2},
		{Switch: sw, Tag: 1, In: 1, Out: 3, NewTag: 2},
		{Switch: sw, Tag: 1, In: 2, Out: 3, NewTag: 2},
	}
	entries := Compress(rules)
	if len(entries) != 1 {
		t.Fatalf("entries = %d, want 1", len(entries))
	}
	e := entries[0]
	if count(e.InPorts) != 3 || !get(e.OutPorts, 3) || e.NewTag != 2 {
		t.Errorf("entry = %+v", e)
	}
	if !matches(&e, 1, 1, 3) || matches(&e, 1, 3, 3) || matches(&e, 2, 1, 3) {
		t.Error("matches wrong")
	}
}

func TestCompressJointAggregation(t *testing.T) {
	// Rules forming an exact cross product {0,1} x {2,3} merge to one
	// entry via stage 2.
	g := topology.New()
	sw := g.AddNode("A", topology.KindSwitch, -1)
	var rules []core.Rule
	for _, in := range []int{0, 1} {
		for _, out := range []int{2, 3} {
			rules = append(rules, core.Rule{Switch: sw, Tag: 1, In: in, Out: out, NewTag: 1})
		}
	}
	entries := Compress(rules)
	if len(entries) != 1 {
		t.Fatalf("entries = %d, want 1", len(entries))
	}
	if count(entries[0].InPorts) != 2 || count(entries[0].OutPorts) != 2 {
		t.Errorf("entry = %+v", entries[0])
	}
}

func TestCompressNoFalsePositives(t *testing.T) {
	// A non-cross-product set must NOT merge into something that matches
	// extra pairs: {(0,2),(1,3)} stays as two entries.
	g := topology.New()
	sw := g.AddNode("A", topology.KindSwitch, -1)
	rules := []core.Rule{
		{Switch: sw, Tag: 1, In: 0, Out: 2, NewTag: 1},
		{Switch: sw, Tag: 1, In: 1, Out: 3, NewTag: 1},
	}
	entries := Compress(rules)
	if len(entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(entries))
	}
	if _, ok := scan(entries, sw, 1, 0, 3); ok {
		t.Error("compression invented a match for (0,3)")
	}
	if _, ok := scan(entries, sw, 1, 1, 2); ok {
		t.Error("compression invented a match for (1,2)")
	}
}

// Property: compression is semantics-preserving — for every (tag, in,
// out) triple in a generated rule set, the compressed entries return the
// same rewrite, and triples absent from the rule set never match.
func TestCompressSemanticsProperty(t *testing.T) {
	g := topology.New()
	sw := g.AddNode("A", topology.KindSwitch, -1)
	f := func(seed uint32, n uint8) bool {
		nRules := int(n%24) + 1
		r := seed
		next := func(mod int) int {
			r = r*1664525 + 1013904223
			return int(r>>16) % mod
		}
		type key struct{ tag, in, out int }
		want := map[key]int{}
		var rules []core.Rule
		for i := 0; i < nRules; i++ {
			k := key{next(3) + 1, next(6), next(6)}
			nt := next(3) + 1
			if prev, ok := want[k]; ok {
				nt = prev // keep rule sets functional
			}
			want[k] = nt
			rules = append(rules, core.Rule{Switch: sw, Tag: k.tag, In: k.in, Out: k.out, NewTag: nt})
		}
		entries := Compress(rules)
		for tag := 1; tag <= 3; tag++ {
			for in := 0; in < 6; in++ {
				for out := 0; out < 6; out++ {
					got, ok := scan(entries, sw, tag, in, out)
					exp, expOK := want[key{tag, in, out}]
					if ok != expOK || (ok && got != exp) {
						t.Logf("mismatch at (%d,%d,%d): got %d,%v want %d,%v",
							tag, in, out, got, ok, exp, expOK)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressClosRulesWithinBounds(t *testing.T) {
	c := paper.Testbed()
	rs := core.ClosRules(c.Graph, 1, 1)
	entries := Compress(rs.Rules())
	if len(entries) == 0 {
		t.Fatal("no entries")
	}
	if len(entries) >= rs.Len() {
		t.Errorf("compression did not shrink: %d entries vs %d rules", len(entries), rs.Len())
	}
	// The per-switch count must respect the paper's InPort-aggregated
	// bound n*m(m-1)/2... the bound is for the generic construction; the
	// Clos scheme has keep rules too, so check against the uncompressed
	// count per switch instead.
	per := PerSwitchCount(entries)
	for sw, cnt := range per {
		own := 0
		for _, r := range rs.RulesAt(sw) {
			_ = r
			own++
		}
		if cnt > own {
			t.Errorf("switch %s: %d entries > %d rules", c.Graph.Node(sw).Name, cnt, own)
		}
	}
	if MaxPerSwitch(entries) <= 0 {
		t.Error("MaxPerSwitch")
	}
}

func TestBounds(t *testing.T) {
	if uncompressedBound(32, 3) != 32*31*3*2/2 {
		t.Error("uncompressedBound")
	}
	if inPortAggregatedBound(32, 3) != 32*3*2/2 {
		t.Error("inPortAggregatedBound")
	}
}

func TestPipelinePriorityTransition(t *testing.T) {
	c := paper.Testbed()
	g := c.Graph
	rs := core.ClosRules(g, 1, 1)
	l1 := g.MustLookup("L1")
	inS1 := g.PortToPeer(l1, g.MustLookup("S1"))
	outS2 := g.PortToPeer(l1, g.MustLookup("S2"))

	// Correct pipeline: bounce rewrites 1 -> 2 and the egress queue follows
	// the NEW tag (Figure 8b).
	tables, _ := Compile(rs)
	pl := NewPipeline(tables[l1], rs.MaxTag())
	d := pl.Process(1, inS1, outS2)
	if d.NewTag != 2 || d.IngressQueue != 1 || d.EgressQueue != 2 || d.Rule < 0 {
		t.Errorf("correct pipeline: %+v", d)
	}

	// Legacy pipeline: egress queue stays at the OLD priority (Figure 8a),
	// the mismatch that loses packets.
	legacy := NewPipeline(tables[l1], rs.MaxTag())
	legacy.LegacyEgressByOldTag = true
	d = legacy.Process(1, inS1, outS2)
	if d.NewTag != 2 || d.EgressQueue != 1 {
		t.Errorf("legacy pipeline: %+v", d)
	}

	// Lossy fallback: second bounce.
	d = pl.Process(2, inS1, outS2)
	if d.EgressQueue != 0 {
		t.Errorf("lossy: %+v", d)
	}
	d = legacy.Process(2, inS1, outS2)
	if d.EgressQueue != 0 {
		t.Errorf("legacy lossy: %+v", d)
	}

	// Without a table (no Tagger, or a host) a tag rides its own queue
	// up to the bound and is never rewritten; beyond it, the lossy queue.
	base := NewPipeline(nil, 3)
	if d := base.Process(3, inS1, outS2); d != (QueueDecision{IngressQueue: 3, EgressQueue: 3, NewTag: 3, Rule: -1}) {
		t.Errorf("no table, tag 3: %+v", d)
	}
	if d := base.Process(4, inS1, outS2); d != (QueueDecision{NewTag: 4, Rule: -1}) {
		t.Errorf("no table, tag 4: %+v", d)
	}

	// A table decides only its ruleset's tags: a bound that disagrees
	// with them is refused.
	defer func() {
		if recover() == nil {
			t.Error("a pipeline with 3 lossless queues over a 2-tag table did not panic")
		}
	}()
	NewPipeline(tables[l1], 3)
}

func TestCompressSynthesizedSystem(t *testing.T) {
	// End-to-end: synthesize Fig-5, compress, and confirm a scan agrees
	// with the ruleset for every installed rule.
	f := paper.NewFig5()
	sys, err := core.Synthesize(f.Graph, f.ELP.Paths(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	entries := Compress(sys.Rules.Rules())
	for _, r := range sys.Rules.Rules() {
		got, ok := scan(entries, r.Switch, r.Tag, r.In, r.Out)
		if !ok || got != r.NewTag {
			t.Errorf("rule %+v: lookup = %d,%v", r, got, ok)
		}
	}
	if len(entries) > sys.Rules.Len() {
		t.Errorf("compression grew the table: %d > %d", len(entries), sys.Rules.Len())
	}
}
