package core

import (
	"testing"

	"repro/internal/elp"
	"repro/internal/paper"
	"repro/internal/topology"
)

func testbed(t *testing.T) *topology.Clos {
	t.Helper()
	return paper.Testbed()
}

// --- Algorithm 1 -----------------------------------------------------------

func TestBruteForceFig5(t *testing.T) {
	f := paper.NewFig5()
	bf := BruteForceN(f.Graph, f.ELP.Paths(), 1)

	if err := bf.Verify(); err != nil {
		t.Fatalf("brute-force graph not deadlock-free: %v", err)
	}
	// Figure 5(b): switch ports carry tags 1..3; tag 4 appears only on
	// destination servers (Table 3's caption).
	if got := bf.SwitchTags(); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("switch tags = %v, want [1 2 3]", got)
	}
	if got := bf.Tags(); len(got) != 4 || got[3] != 4 {
		t.Errorf("all tags = %v, want [1 2 3 4]", got)
	}
	if bf.maxTag != 4 {
		t.Errorf("MaxTag = %d, want 4", bf.maxTag)
	}
	// Tag 4 vertices are exactly server ingress ports.
	for _, n := range bf.Nodes() {
		if n.Tag == 4 {
			owner := f.Graph.Port(n.Port).Node
			if f.Graph.Node(owner).Kind != topology.KindHost {
				t.Errorf("tag 4 on switch port %s", bf.NodeString(n))
			}
		}
	}
	// Every edge increments the tag by exactly one.
	for _, e := range bf.Edges() {
		if e.To.Tag != e.From.Tag+1 {
			t.Errorf("edge %s -> %s not +1", bf.NodeString(e.From), bf.NodeString(e.To))
		}
	}
}

func TestBruteForceNodeCountsFig5(t *testing.T) {
	f := paper.NewFig5()
	bf := BruteForceN(f.Graph, f.ELP.Paths(), 1)
	// Figure 5(b) shows 9 switch (port,tag) rectangles at tags 1-2 and 6 at
	// tag 3 plus... count what the construction must give: 3 first-hop
	// nodes (tag 1), 6 second-hop (tag 2), 6+3 third-hop (tag 3: 6 switch
	// nodes on 5-node paths' third hops are servers for 4-node paths),
	// and server tag-4 nodes. Rather than over-fit the figure, assert the
	// structural invariants: 3 tag-1 nodes, 6 tag-2 nodes.
	count := map[int]int{}
	for _, n := range bf.Nodes() {
		count[n.Tag]++
	}
	if count[1] != 3 {
		t.Errorf("tag-1 nodes = %d, want 3 (D->A, E->B, F->C ingresses)", count[1])
	}
	if count[2] != 6 {
		t.Errorf("tag-2 nodes = %d, want 6", count[2])
	}
}

func TestBruteForceUpDownClosIsShallow(t *testing.T) {
	c := testbed(t)
	s := elp.UpDownAll(c.Graph, c.ToRs)
	bf := BruteForceN(c.Graph, s.Paths(), 1)
	if err := bf.Verify(); err != nil {
		t.Fatal(err)
	}
	// Longest up-down ToR-to-ToR path is 4 hops: tags 1..4.
	if bf.maxTag != 4 {
		t.Errorf("MaxTag = %d, want 4", bf.maxTag)
	}
}

func TestBruteForceEmptyELP(t *testing.T) {
	c := testbed(t)
	bf := BruteForceN(c.Graph, nil, 1)
	if bf.NumNodes() != 0 || bf.NumEdges() != 0 || bf.NumTags() != 0 {
		t.Error("empty ELP should give empty graph")
	}
	if err := bf.Verify(); err != nil {
		t.Errorf("empty graph should verify: %v", err)
	}
}

// --- Algorithm 2 -----------------------------------------------------------

func TestGreedyMinimizeFig5(t *testing.T) {
	f := paper.NewFig5()
	bf := BruteForceN(f.Graph, f.ELP.Paths(), 1)
	merged := GreedyMinimize(bf)

	if err := merged.Verify(); err != nil {
		t.Fatalf("merged graph not deadlock-free: %v", err)
	}
	// Figure 5(c): Algorithm 2 reduces the walk-through to two tags.
	if got := merged.NumSwitchTags(); got != 2 {
		t.Errorf("switch tags after merge = %d, want 2 (paper Fig 5c)", got)
	}
	// Same vertices as brute force, re-tagged: node count can only shrink
	// (merging collapses (port,t1),(port,t2) pairs).
	if merged.NumNodes() > bf.NumNodes() {
		t.Errorf("merged nodes %d > brute-force %d", merged.NumNodes(), bf.NumNodes())
	}
}

func TestGreedyMinimizeUpDownClosToOneTag(t *testing.T) {
	// Up-down paths alone have no CBD, so every vertex merges into tag 1.
	c := testbed(t)
	s := elp.UpDownAll(c.Graph, c.ToRs)
	bf := BruteForceN(c.Graph, s.Paths(), 1)
	merged := GreedyMinimize(bf)
	if err := merged.Verify(); err != nil {
		t.Fatal(err)
	}
	if got := merged.NumTags(); got != 1 {
		t.Errorf("up-down Clos needs %d tags after merge, want 1", got)
	}
}

func TestGreedyMinimizeOneBounceClos(t *testing.T) {
	// Figure 6: on Clos with shortest + 1-bounce ELP, Algorithm 2 yields
	// three tags where the topology-specific optimum is two.
	c := testbed(t)
	s := elp.KBounce(c.Graph, c.ToRs, 1, nil)
	bf := BruteForceN(c.Graph, s.Paths(), 1)
	merged := GreedyMinimize(bf)
	if err := merged.Verify(); err != nil {
		t.Fatal(err)
	}
	got := merged.NumSwitchTags()
	if got != 3 {
		t.Errorf("greedy on 1-bounce Clos = %d tags, paper's Figure 6 shows 3", got)
	}
	if got <= MinLosslessQueues(1)-1 {
		t.Errorf("greedy beat the provable lower bound: %d", got)
	}
}

func TestGreedyMinimizePanicsOnNonBruteForce(t *testing.T) {
	f := paper.NewFig5()
	tg := NewTaggedGraph(f.Graph)
	p1 := f.Graph.PortOn(f.A, 0)
	p2 := f.Graph.PortOn(f.B, 0)
	tg.AddEdge(TagNode{p1, 1}, TagNode{p2, 1}) // same-tag edge: not brute force
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	GreedyMinimize(tg)
}

func TestGreedyNeverIncreasesTags(t *testing.T) {
	c := testbed(t)
	for k := 0; k <= 2; k++ {
		s := elp.KBounce(c.Graph, c.ToRs, k, nil)
		bf := BruteForceN(c.Graph, s.Paths(), 1)
		merged := GreedyMinimize(bf)
		if merged.NumTags() > bf.NumTags() {
			t.Errorf("k=%d: merged %d > brute %d", k, merged.NumTags(), bf.NumTags())
		}
		if err := merged.Verify(); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
	}
}

// --- Verifier --------------------------------------------------------------

func TestVerifyDetectsSameTagCycle(t *testing.T) {
	f := paper.NewFig5()
	tg := NewTaggedGraph(f.Graph)
	// Build the Figure 1 style CBD: A->B->C->A within one tag.
	ab := TagNode{ingressPortOf(f.Graph, f.A, f.B), 1} // B's ingress from A
	bc := TagNode{ingressPortOf(f.Graph, f.B, f.C), 1}
	ca := TagNode{ingressPortOf(f.Graph, f.C, f.A), 1}
	tg.AddEdge(ab, bc)
	tg.AddEdge(bc, ca)
	tg.AddEdge(ca, ab)
	err := tg.Verify()
	if err == nil {
		t.Fatal("cycle not detected")
	}
	ve, ok := err.(*VerifyError)
	if !ok || ve.Requirement != 1 {
		t.Fatalf("wrong error: %v", err)
	}
}

func TestVerifyDetectsTagDecrease(t *testing.T) {
	f := paper.NewFig5()
	tg := NewTaggedGraph(f.Graph)
	ab := TagNode{ingressPortOf(f.Graph, f.A, f.B), 2}
	bc := TagNode{ingressPortOf(f.Graph, f.B, f.C), 1}
	tg.AddEdge(ab, bc)
	err := tg.Verify()
	if err == nil {
		t.Fatal("tag decrease not detected")
	}
	ve, ok := err.(*VerifyError)
	if !ok || ve.Requirement != 2 {
		t.Fatalf("wrong error: %v", err)
	}
	if ve.Error() == "" {
		t.Error("empty error text")
	}
}

func TestVerifyAcceptsCrossTagCycle(t *testing.T) {
	// A cycle that climbs tags is fine as long as no single tag has one
	// and no edge decreases — impossible to close monotonically, so build
	// the two legal halves only.
	f := paper.NewFig5()
	tg := NewTaggedGraph(f.Graph)
	ab := TagNode{ingressPortOf(f.Graph, f.A, f.B), 1}
	bc := TagNode{ingressPortOf(f.Graph, f.B, f.C), 2}
	ca := TagNode{ingressPortOf(f.Graph, f.C, f.A), 2}
	tg.AddEdge(ab, bc)
	tg.AddEdge(bc, ca)
	if err := tg.Verify(); err != nil {
		t.Fatalf("legal graph rejected: %v", err)
	}
}

// ingressPortOf returns `to`'s ingress port facing `from`.
func ingressPortOf(g *topology.Graph, from, to topology.NodeID) topology.PortID {
	return g.PortOn(to, g.PortToPeer(to, from))
}

// --- Tagged graph plumbing ---------------------------------------------------

// lookup returns the dense ID for n, or -1 when the vertex is absent.
func (tg *TaggedGraph) lookup(n TagNode) int32 {
	if n.Tag < 0 || n.Tag > tg.capTag {
		return -1
	}
	return tg.tab[int(n.Port)*(tg.capTag+1)+n.Tag] - 1
}

// degree counts the adjacency list of dense vertex id.
func degree(head []int32, pool []adjEntry, id int32) int {
	d := 0
	for i := head[id]; i != 0; i = pool[i-1].next {
		d++
	}
	return d
}

// hasEdge reports whether the directed edge from -> to exists.
func hasEdge(tg *TaggedGraph, from, to TagNode) bool {
	f, t := tg.lookup(from), tg.lookup(to)
	if f < 0 || t < 0 {
		return false
	}
	for i := tg.succHead[f]; i != 0; i = tg.succPool[i-1].next {
		if tg.succPool[i-1].node == t {
			return true
		}
	}
	return false
}

func TestTaggedGraphBasics(t *testing.T) {
	f := paper.NewFig5()
	tg := NewTaggedGraph(f.Graph)
	a := TagNode{ingressPortOf(f.Graph, f.A, f.B), 1}
	b := TagNode{ingressPortOf(f.Graph, f.B, f.C), 2}
	tg.AddEdge(a, b)
	tg.AddEdge(a, b) // duplicate ignored
	tg.AddNode(a)    // duplicate ignored
	if tg.NumNodes() != 2 || tg.NumEdges() != 1 {
		t.Errorf("nodes=%d edges=%d, want 2,1", tg.NumNodes(), tg.NumEdges())
	}
	if tg.lookup(a) < 0 || !hasEdge(tg, a, b) || hasEdge(tg, b, a) {
		t.Error("vertex or edge lookup wrong")
	}
	if degree(tg.succHead, tg.succPool, tg.lookup(a)) != 1 || degree(tg.predHead, tg.predPool, tg.lookup(b)) != 1 {
		t.Error("adjacency wrong")
	}
	if s := tg.NodeString(a); s == "" {
		t.Error("NodeString empty")
	}
	edges := tg.Edges()
	if len(edges) != 1 || edges[0].From != a {
		t.Error("Edges() wrong")
	}
}

// --- Path replay across algorithms -------------------------------------------

func TestMergedGraphPreservesPathCoverage(t *testing.T) {
	// Every ELP path must exist as a vertex/edge chain in the merged
	// graph: walk each path's ports and check chain membership for the
	// tags the rules actually produce.
	f := paper.NewFig5()
	bf := BruteForceN(f.Graph, f.ELP.Paths(), 1)
	merged := GreedyMinimize(bf)
	rs, conflicts := DeriveRules(merged)
	if len(conflicts) != 0 {
		t.Fatalf("unexpected conflicts on Fig 5: %+v", conflicts)
	}
	for _, p := range f.ELP.Paths() {
		res := rs.Replay(p, 1)
		if !res.Lossless {
			t.Errorf("path %s not lossless after merge", p.String(f.Graph))
		}
	}
}
