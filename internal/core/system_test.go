package core

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"repro/internal/elp"
	"repro/internal/paper"
	"repro/internal/routing"
	"repro/internal/topology"
)

func TestSynthesizeFig5(t *testing.T) {
	f := paper.NewFig5()
	sys, err := Synthesize(f.Graph, f.ELP.Paths(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.NumLosslessQueues(); got != 2 {
		t.Errorf("queues = %d, want 2", got)
	}
	if len(sys.Conflicts) != 0 || len(sys.Repairs) != 0 {
		t.Errorf("conflicts=%d repairs=%d, want 0,0", len(sys.Conflicts), len(sys.Repairs))
	}
	if sys.BruteForce == nil || sys.Merged == nil || sys.Rules == nil || sys.Runtime == nil {
		t.Fatal("missing artifacts")
	}
	// Runtime graph must verify (Synthesize already did; belt and braces).
	if err := sys.Runtime.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestSynthesizeSkipMerge(t *testing.T) {
	f := paper.NewFig5()
	sys, err := Synthesize(f.Graph, f.ELP.Paths(), Options{SkipMerge: true})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Merged != nil {
		t.Error("SkipMerge should leave Merged nil")
	}
	// Brute force needs one tag per hop: 3 switch tags on Fig 5.
	if got := sys.Runtime.NumSwitchTags(); got != 3 {
		t.Errorf("brute-force queues = %d, want 3", got)
	}
}

func TestSynthesizeRejectsStartTag(t *testing.T) {
	f := paper.NewFig5()
	if _, err := Synthesize(f.Graph, f.ELP.Paths(), Options{StartTag: 2}); err == nil {
		t.Fatal("expected error for StartTag 2")
	}
}

func TestSynthesizeClosKBounce(t *testing.T) {
	c := paper.Testbed()
	for k := 0; k <= 2; k++ {
		s := elp.KBounce(c.Graph, c.ToRs, k, nil)
		sys, err := Synthesize(c.Graph, s.Paths(), Options{})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		got := sys.NumLosslessQueues()
		if got < MinLosslessQueues(k) {
			t.Errorf("k=%d: %d queues beats the provable lower bound %d",
				k, got, MinLosslessQueues(k))
		}
	}
}

func TestReplayTagsMatchRuntimeGraph(t *testing.T) {
	f := paper.NewFig5()
	sys, err := Synthesize(f.Graph, f.ELP.Paths(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range f.ELP.Paths() {
		res := sys.Rules.Replay(p, 1)
		if !res.Lossless {
			t.Fatalf("path %s not lossless", p.String(f.Graph))
		}
		if len(res.Tags) != len(p)-1 {
			t.Fatalf("tags len %d for %d-node path", len(res.Tags), len(p))
		}
		// Every (ingress, tag) the replay produces must be a runtime vertex.
		for i := 1; i < len(p); i++ {
			n := TagNode{Port: ingressPortOf(f.Graph, p[i-1], p[i]), Tag: res.Tags[i-1]}
			if !sys.Runtime.HasNode(n) {
				t.Errorf("replay vertex %s missing from runtime graph", sys.Runtime.NodeString(n))
			}
		}
	}
}

func TestRulesetClassifyDefaults(t *testing.T) {
	c := paper.Testbed()
	g := c.Graph
	rs := NewRuleset(g, 2)
	t1 := g.MustLookup("T1")
	hostIn := g.PortToPeer(t1, g.MustLookup("H1"))
	fabricOut := g.PortToPeer(t1, g.MustLookup("L1"))
	fabricIn := g.PortToPeer(t1, g.MustLookup("L2"))

	// Injection: host ingress keeps the NIC stamp.
	if got := rs.Classify(t1, 1, hostIn, fabricOut); got != 1 {
		t.Errorf("injection = %d, want 1", got)
	}
	// Delivery: host egress keeps the tag.
	if got := rs.Classify(t1, 2, fabricIn, hostIn); got != 2 {
		t.Errorf("delivery = %d, want 2", got)
	}
	// Fabric miss goes lossy.
	if got := rs.Classify(t1, 1, fabricIn, fabricOut); got != LossyTag {
		t.Errorf("fabric miss = %d, want lossy", got)
	}
	// Lossy stays lossy even on host ingress.
	if got := rs.Classify(t1, LossyTag, hostIn, fabricOut); got != LossyTag {
		t.Errorf("lossy ingress = %d, want lossy", got)
	}
	// Out-of-range tags are lossy.
	if got := rs.Classify(t1, 99, hostIn, fabricOut); got != LossyTag {
		t.Errorf("overrange tag = %d, want lossy", got)
	}
	// Exact rule beats injection default.
	rs.Add(Rule{Switch: t1, Tag: 1, In: hostIn, Out: fabricOut, NewTag: 2})
	if got := rs.Classify(t1, 1, hostIn, fabricOut); got != 2 {
		t.Errorf("exact rule = %d, want 2", got)
	}
}

func TestRulesetAddConflictReporting(t *testing.T) {
	c := paper.Testbed()
	rs := NewRuleset(c.Graph, 3)
	t1 := c.Graph.MustLookup("T1")
	r := Rule{Switch: t1, Tag: 1, In: 0, Out: 1, NewTag: 2}
	if _, conflicted := rs.Add(r); conflicted {
		t.Error("fresh add conflicted")
	}
	if _, conflicted := rs.Add(r); conflicted {
		t.Error("identical re-add conflicted")
	}
	r.NewTag = 3
	old, conflicted := rs.Add(r)
	if !conflicted || old != 2 {
		t.Errorf("conflict = %v old=%d, want true,2", conflicted, old)
	}
	if got, _ := rs.Lookup(t1, 1, 0, 1); got != 3 {
		t.Errorf("lookup after conflicting add = %d, want 3", got)
	}
	if rs.Len() != 1 {
		t.Errorf("Len = %d, want 1", rs.Len())
	}
	if got := rs.RulesAt(t1); len(got) != 1 {
		t.Errorf("RulesAt = %d rules", len(got))
	}
}

func TestRulesetMaxTagGrows(t *testing.T) {
	c := paper.Testbed()
	rs := NewRuleset(c.Graph, 2)
	if rs.MaxTag() != 2 {
		t.Fatal("initial maxtag")
	}
	rs.Add(Rule{Switch: c.ToRs[0], Tag: 2, In: 0, Out: 1, NewTag: 5})
	if rs.MaxTag() != 5 {
		t.Errorf("MaxTag = %d, want 5", rs.MaxTag())
	}
	rs.SetMaxTag(3) // cannot shrink
	if rs.MaxTag() != 5 {
		t.Errorf("SetMaxTag shrank to %d", rs.MaxTag())
	}
	if !rs.IsLossless(5) || rs.IsLossless(6) || rs.IsLossless(0) {
		t.Error("IsLossless bounds wrong")
	}
}

func TestBuildRuleGraphReportsViolations(t *testing.T) {
	// An empty ruleset makes every fabric hop lossy.
	c := paper.Testbed()
	g := c.Graph
	rs := NewRuleset(g, 1)
	p := routing.Path{g.MustLookup("T1"), g.MustLookup("L1"), g.MustLookup("S1")}
	tg, violations := BuildRuleGraph(rs, []routing.Path{p}, 1)
	if len(violations) != 1 {
		t.Fatalf("violations = %d, want 1", len(violations))
	}
	// The first hop out of T1 still injects lossless (T1 has host ports,
	// and the replay models injection), so L1's ingress vertex exists; the
	// L1 hop then goes lossy and produces nothing further.
	if tg.NumEdges() != 0 {
		t.Errorf("edges = %d, want 0", tg.NumEdges())
	}
}

func TestRepairReplayFillsMissingRules(t *testing.T) {
	c := paper.Testbed()
	g := c.Graph
	// Start from an empty ruleset and let the repair pass synthesize
	// everything for a small ELP: it must end lossless and verified.
	s := elp.UpDownAll(g, c.ToRs)
	rs := NewRuleset(g, 1)
	repairs := RepairReplay(rs, s.Paths(), 1)
	if len(repairs) == 0 {
		t.Fatal("expected synthesized rules")
	}
	checkRepairDigest(t, g, repairs, repairDigest{n: 56, bumps: 0, sum: 0xf547a17d457aeb95})
	tg, violations := BuildRuleGraph(rs, s.Paths(), 1)
	if len(violations) != 0 {
		t.Fatalf("%d violations after repair", len(violations))
	}
	if err := tg.Verify(); err != nil {
		t.Fatalf("repaired graph: %v", err)
	}
	// Up-down ELP should need just one tag even via repair.
	if got := tg.NumTags(); got != 1 {
		t.Errorf("repair used %d tags, want 1", got)
	}
}

func TestDeriveRulesSkipsHostTails(t *testing.T) {
	// Host-level path: the edge out of the host must not create a rule at
	// the host.
	c := paper.Testbed()
	g := c.Graph
	p := routing.Path{
		g.MustLookup("H1"), g.MustLookup("T1"), g.MustLookup("L1"),
		g.MustLookup("S1"), g.MustLookup("L3"), g.MustLookup("T3"), g.MustLookup("H9"),
	}
	bf := BruteForce(g, []routing.Path{p})
	rs, conflicts := DeriveRules(bf)
	if len(conflicts) != 0 {
		t.Fatal("unexpected conflicts")
	}
	for _, r := range rs.Rules() {
		if g.Node(r.Switch).Kind == topology.KindHost {
			t.Errorf("rule installed at host: %+v", r)
		}
	}
	res := rs.Replay(p, 1)
	if !res.Lossless {
		t.Fatal("host-level path not lossless")
	}
	// Tags increase by one per switch hop: 1 at T1's ingress, ..., 6 at H9.
	want := []int{1, 2, 3, 4, 5, 6}
	for i, w := range want {
		if res.Tags[i] != w {
			t.Errorf("tag[%d] = %d, want %d", i, res.Tags[i], w)
		}
	}
}

// repairLines renders repairs one per line in emission order:
// "switch tag/in/out->newTag path".
func repairLines(g *topology.Graph, repairs []Repair) []string {
	out := make([]string, len(repairs))
	for i, r := range repairs {
		out[i] = fmt.Sprintf("%s %d/%d/%d->%d %s", g.Node(r.Rule.Switch).Name,
			r.Rule.Tag, r.Rule.In, r.Rule.Out, r.Rule.NewTag, r.Path.String(g))
	}
	return out
}

// repairDigest pins a []Repair too long to spell out: its length, how
// many rules bumped the tag, and FNV-1a over repairLines. The values in
// this package's tests were captured from the map-based RepairReplay
// before the dense adjacency replaced it.
type repairDigest struct {
	n, bumps int
	sum      uint64
}

func checkRepairDigest(t *testing.T, g *topology.Graph, repairs []Repair, want repairDigest) {
	t.Helper()
	got := repairDigest{n: len(repairs)}
	h := fnv.New64a()
	for i, line := range repairLines(g, repairs) {
		if repairs[i].Rule.NewTag != repairs[i].Rule.Tag {
			got.bumps++
		}
		h.Write([]byte(line + "\n"))
	}
	got.sum = h.Sum64()
	if got != want {
		t.Errorf("repairs = {n: %d, bumps: %d, sum: %#x}, want {n: %d, bumps: %d, sum: %#x}",
			got.n, got.bumps, got.sum, want.n, want.bumps, want.sum)
	}
}

// TestRepairReplayCyclicSeedStillBumps: RepairReplay tests the whole
// same-tag rule graph, not just the edge it adds. Here the installed
// tag-1 rules already close the Figure 1 ring A -> B -> C -> A (no ELP
// path walks it), and the one missing rule adds an edge in the opposite
// direction that lies on no cycle: the repair must still move to tag 2.
// An incremental "does the new edge close a cycle" test would keep tag 1.
func TestRepairReplayCyclicSeedStillBumps(t *testing.T) {
	g := topology.New()
	a := g.AddNode("A", topology.KindSwitch, -1)
	b := g.AddNode("B", topology.KindSwitch, -1)
	c := g.AddNode("C", topology.KindSwitch, -1)
	ha := g.AddNode("Ha", topology.KindHost, 0)
	hc := g.AddNode("Hc", topology.KindHost, 0)
	g.Connect(a, b)
	g.Connect(b, c)
	g.Connect(c, a)
	g.Connect(ha, a)
	g.Connect(hc, c)

	rs := NewRuleset(g, 1)
	for _, hop := range [][3]topology.NodeID{{a, b, c}, {b, c, a}, {c, a, b}} {
		sw := hop[1]
		rs.Add(Rule{Switch: sw, Tag: 1, In: g.PortToPeer(sw, hop[0]), Out: g.PortToPeer(sw, hop[2]), NewTag: 1})
	}
	p := routing.Path{hc, c, b, a, ha}
	got := repairLines(g, RepairReplay(rs, []routing.Path{p}, 1))
	want := []string{"B 1/1/0->2 " + p.String(g)}
	if !slices.Equal(got, want) {
		t.Errorf("repairs = %q, want %q", got, want)
	}
	if rs.MaxTag() != 2 {
		t.Errorf("MaxTag = %d, want 2", rs.MaxTag())
	}
}
