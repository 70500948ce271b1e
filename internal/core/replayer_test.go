package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/elp"
	"repro/internal/routing"
	"repro/internal/topology"
)

// referenceRuleGraph is what buildRuleGraphN must produce, built with no
// state carried between paths: each path goes through Ruleset.Replay on
// its own and its vertex chain is added hop by hop, stopping at the hop
// that went lossy.
func referenceRuleGraph(rs *Ruleset, paths []routing.Path, startTag int) (*TaggedGraph, []routing.Path) {
	g := rs.Graph()
	tg := NewTaggedGraph(g)
	var lossy []routing.Path
	for _, p := range paths {
		res := rs.Replay(p, startTag)
		hops := len(p) - 1
		if !res.Lossless {
			lossy = append(lossy, p)
			hops = res.DropHop
		}
		for i := 1; i <= hops; i++ {
			n := TagNode{Port: ingressPortOf(g, p[i-1], p[i]), Tag: res.Tags[i-1]}
			tg.AddNode(n)
			if i > 1 {
				tg.AddEdge(TagNode{Port: ingressPortOf(g, p[i-2], p[i-1]), Tag: res.Tags[i-2]}, n)
			}
		}
	}
	return tg, lossy
}

// TestReplayerResumeAdversarial feeds buildRuleGraphN path orders chosen
// to break prefix resumption and requires, for every worker count 1-4
// (each shard starts a replayer cold, so shard boundaries move through
// the list), the reference's graph — same vertices and edges in the same
// interning order — and the same violation list.
func TestReplayerResumeAdversarial(t *testing.T) {
	c, err := topology.NewClos(topology.ClosConfig{Pods: 3, ToRsPerPod: 2, LeafsPerPod: 2, Spines: 2, HostsPerToR: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := c.Graph
	// One-bounce rules over a two-bounce ELP: every two-bounce path goes
	// lossy at its second valley, mid-path.
	rs := ClosRules(g, 1, 1)
	sorted := elp.KBounce(g, c.ToRs, 2, nil).Paths()

	var lossless, lossy routing.Path
	lossyAt := -1
	for _, p := range sorted {
		switch res := rs.Replay(p, 1); {
		case res.Lossless && len(p) > len(lossless):
			lossless = p
		case !res.Lossless && res.DropHop+2 < len(p) && lossy == nil:
			lossy, lossyAt = p, res.DropHop
		}
	}
	if len(lossless) < 5 || lossy == nil {
		t.Fatalf("fixture lacks a long lossless path (%d nodes) or a path lossy before its last switch (%v)", len(lossless), lossy)
	}
	// A path sharing lossy's nodes through the lossy switch and the hop
	// after it: it goes lossy at the same hop, and the state the replayer
	// may reuse ends there. And one sharing only up to the lossy switch,
	// leaving it another way.
	var sameFate, otherWay routing.Path
	for _, p := range sorted {
		if p.Equal(lossy) || len(p) <= lossyAt+1 || !p[:lossyAt+1].Equal(lossy[:lossyAt+1]) {
			continue
		}
		if p[lossyAt+1] == lossy[lossyAt+1] && sameFate == nil {
			sameFate = p
		}
		if p[lossyAt+1] != lossy[lossyAt+1] && otherWay == nil {
			otherWay = p
		}
	}
	if sameFate == nil || otherWay == nil {
		t.Fatalf("fixture lacks neighbours of the lossy path (sameFate=%v otherWay=%v)", sameFate, otherWay)
	}

	shuffled := append([]routing.Path(nil), sorted...)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	cases := []struct {
		name  string
		paths []routing.Path
	}{
		{"enumeration order", sorted},
		{"shuffled: no prefix shared", shuffled},
		{"path, its proper prefixes, itself", []routing.Path{
			lossless, lossless[:len(lossless)-1], lossless[:2], lossless[:1], lossless, lossless, lossless[:3], lossless}},
		{"lossy, then paths sharing the lossy prefix", []routing.Path{
			lossy, sameFate, lossy, otherWay, lossy[:lossyAt+1], lossy[:lossyAt+2], lossy, sameFate}},
		{"short after long after short", []routing.Path{
			lossless[:2], lossless, lossless[:3], lossy, lossless[:2], {}, lossless}},
		{"empty list", nil},
	}
	for _, tc := range cases {
		want, wantLossy := referenceRuleGraph(rs, tc.paths, 1)
		for workers := 1; workers <= 4; workers++ {
			got, gotLossy := buildRuleGraphN(rs, tc.paths, newHopPorts(g, tc.paths, workers), 1, workers)
			if !reflect.DeepEqual(got.nodes, want.nodes) { // interning order, not Nodes()' sorted one
				t.Errorf("%s, %d workers: vertices differ (%d vs %d)", tc.name, workers, got.NumNodes(), want.NumNodes())
			}
			if !reflect.DeepEqual(got.Edges(), want.Edges()) {
				t.Errorf("%s, %d workers: edges differ (%d vs %d)", tc.name, workers, got.NumEdges(), want.NumEdges())
			}
			if len(gotLossy) != len(wantLossy) {
				t.Fatalf("%s, %d workers: %d violations, want %d", tc.name, workers, len(gotLossy), len(wantLossy))
			}
			for i := range wantLossy {
				if !gotLossy[i].Equal(wantLossy[i]) {
					t.Errorf("%s, %d workers: violation %d = %v, want %v", tc.name, workers, i, gotLossy[i], wantLossy[i])
				}
			}
		}
	}
}
