package fingerprint

import (
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
)

// twoLayer builds a 2-spine / 4-ToR fabric. spinesFirst controls node-ID
// assignment order; prefix controls names. The CONNECT order (ToR-major,
// spine 1 then spine 2) is identical in both variants, so the two graphs
// are isomorphic including port numbers while their node IDs and names
// are permuted/disjoint.
func twoLayer(spinesFirst bool, prefix string) *topology.Graph {
	g := topology.New()
	var spines, tors []topology.NodeID
	addSpines := func() {
		for i := 0; i < 2; i++ {
			spines = append(spines, g.AddNode(prefix+"s"+string(rune('1'+i)), topology.KindSpine, 3))
		}
	}
	addTors := func() {
		for i := 0; i < 4; i++ {
			tors = append(tors, g.AddNode(prefix+"t"+string(rune('1'+i)), topology.KindToR, 1))
		}
	}
	if spinesFirst {
		addSpines()
		addTors()
	} else {
		addTors()
		addSpines()
	}
	for _, t := range tors {
		for _, s := range spines {
			g.Connect(t, s)
		}
	}
	return g
}

func TestCanonicalizePermutationInvariant(t *testing.T) {
	a := Canonicalize(twoLayer(true, "a"))
	b := Canonicalize(twoLayer(false, "b"))
	if a.FP != b.FP {
		t.Fatalf("isomorphic graphs fingerprint differently: %s vs %s", a.FP, b.FP)
	}
	// The positional map must be an isomorphism: every canonical position
	// holds nodes of the same kind/layer in both graphs.
	ga, gb := twoLayer(true, "a"), twoLayer(false, "b")
	ca, cb := Canonicalize(ga), Canonicalize(gb)
	for pos := range ca.Order {
		na, nb := ga.Node(ca.Order[pos]), gb.Node(cb.Order[pos])
		if na.Kind != nb.Kind || na.Layer != nb.Layer {
			t.Fatalf("position %d maps %v/%d to %v/%d", pos, na.Kind, na.Layer, nb.Kind, nb.Layer)
		}
	}
}

func TestCanonicalizeDistinguishesWiring(t *testing.T) {
	a := twoLayer(true, "a")
	b := twoLayer(true, "b")
	// Extra link changes the wiring: fingerprints must diverge.
	b.Connect(b.MustLookup("bt1"), b.MustLookup("bt2"))
	if Canonicalize(a).FP == Canonicalize(b).FP {
		t.Fatal("different wirings share a fingerprint")
	}
}

func TestFingerprintIgnoresHealthGenIgnoresFlaps(t *testing.T) {
	g := twoLayer(true, "a")
	before := Canonicalize(g)
	genBefore := g.Gen()
	g.FailLink(g.MustLookup("at1"), g.MustLookup("as1"))
	if g.Gen() != genBefore {
		t.Fatal("FailLink bumped the wiring generation")
	}
	after := Canonicalize(g)
	if before.FP != after.FP {
		t.Fatal("link health leaked into the graph fingerprint")
	}
	healthyAgain := g.Gen()
	g.RestoreLink(g.MustLookup("at1"), g.MustLookup("as1"))
	if g.Gen() != healthyAgain {
		t.Fatal("RestoreLink bumped the wiring generation")
	}
	// Wiring changes DO bump the generation.
	g.Connect(g.MustLookup("at1"), g.MustLookup("at2"))
	if g.Gen() == genBefore {
		t.Fatal("Connect did not bump the wiring generation")
	}
}

func TestDecomposeFatTree(t *testing.T) {
	ft, err := topology.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := Decompose(ft.Graph)
	if !ok {
		t.Fatal("fat-tree did not decompose")
	}
	if len(d.Pods) != 4 || !d.Uniform {
		t.Fatalf("pods = %d, uniform = %v; want 4 uniform pods", len(d.Pods), d.Uniform)
	}
	if len(d.Shared) != 4 {
		t.Fatalf("shared = %d, want 4 cores", len(d.Shared))
	}
	for _, p := range d.Pods {
		if len(p.Members) != 4 {
			t.Fatalf("pod members = %d, want 4 (2 aggs + 2 edges)", len(p.Members))
		}
		// Canonical member order: aggs (layer 2) before edges (layer 1).
		if ft.Graph.Node(p.Members[0]).Layer != 2 || ft.Graph.Node(p.Members[3]).Layer != 1 {
			t.Fatal("pod member order is not layer-descending")
		}
	}
	// A failed intra-pod link breaks uniformity (health is part of the
	// pod fingerprint — enumeration routes around it).
	ft.Graph.FailLink(ft.Edges[0], ft.Aggs[0])
	d2, ok := Decompose(ft.Graph)
	if !ok || d2.Uniform {
		t.Fatalf("ok=%v uniform=%v after intra-pod failure; want ok, non-uniform", ok, d2.Uniform)
	}
}

func TestDecomposeRejectsUnlayered(t *testing.T) {
	j, err := topology.NewJellyfish(topology.JellyfishConfig{Switches: 12, Ports: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := Decompose(j.Graph); ok {
		t.Fatal("jellyfish decomposed into pods")
	}
}

func TestPodPermCoversAllPairs(t *testing.T) {
	const n = 5
	for p := 0; p < n; p++ {
		for q := 0; q < n; q++ {
			if p == q {
				continue
			}
			perm := PodPerm(n, p, q)
			if perm[0] != p || perm[1] != q {
				t.Fatalf("PodPerm(%d,%d,%d) sends (0,1) to (%d,%d)", n, p, q, perm[0], perm[1])
			}
			seen := make([]bool, n)
			for _, v := range perm {
				if v < 0 || v >= n || seen[v] {
					t.Fatalf("PodPerm(%d,%d,%d) = %v is not a permutation", n, p, q, perm)
				}
				seen[v] = true
			}
		}
	}
}

func TestPathsSumOrderSensitive(t *testing.T) {
	g := twoLayer(true, "a")
	c := Canonicalize(g)
	t1, t2 := g.MustLookup("at1"), g.MustLookup("at2")
	s1 := g.MustLookup("as1")
	p1 := routing.Path{t1, s1, t2}
	p2 := routing.Path{t2, s1, t1}
	a := PathsSum(c, []routing.Path{p1, p2})
	b := PathsSum(c, []routing.Path{p2, p1})
	if a == b {
		t.Fatal("PathsSum ignores path order")
	}
}
