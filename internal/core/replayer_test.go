package core

import (
	"math/rand"
	"reflect"
	"slices"
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

// replayFromScratch is the per-path replay the replayer must reproduce
// for Resynth, as it ran before replays resumed from a shared prefix: the
// path from the NIC stamp, appending its packed chain and every consulted
// key. The match ports come from node-pair lookups on p, not from the
// port space the replayer reads.
func replayFromScratch(g *topology.Graph, p routing.Path, rs *Ruleset) ([]uint32, []uint64, bool) {
	var chain []uint32
	var keys []uint64
	tag := 1
	for i := 1; i < len(p); i++ {
		chain = append(chain, packTagKey(ingressPortOf(g, p[i-1], p[i]), tag))
		if i+1 < len(p) {
			sw := p[i]
			in, out := g.PortToPeer(sw, p[i-1]), g.PortToPeer(sw, p[i+1])
			if k, kok := matchKey(sw, tag, in, out); kok {
				keys = append(keys, k)
			}
			tag = rs.Classify(sw, tag, in, out)
			if tag == LossyTag {
				return chain, keys, false
			}
		}
	}
	return chain, keys, true
}

// resumeOrder is one list of paths the replay tests walk in order.
type resumeOrder struct {
	name  string
	paths []routing.Path
}

// resumeOrders returns the fixture of the resume tests: a three-pod Clos
// under one-bounce rules and path orders chosen to break prefix
// resumption — the enumeration order, ascending slot order after a
// shuffled admission (the order Resynth walks), a shuffle, a path with
// its prefixes and repeats, and a path that goes lossy mid-way beside
// neighbours that share its prefix through the lossy switch and past it.
func resumeOrders(t *testing.T) (*topology.Graph, *Ruleset, []resumeOrder) {
	t.Helper()
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
	// A path sharing lossy's nodes through the lossy switch and the hop
	// after it: it goes lossy at the same hop, and the state the replayer
	// may reuse ends there. And one sharing only up to the lossy switch,
	// leaving it another way.
	var sameFate, otherWay routing.Path
	for _, p := range sorted {
		if lossy == nil || p.Equal(lossy) || len(p) <= lossyAt+1 || !p[:lossyAt+1].Equal(lossy[:lossyAt+1]) {
			continue
		}
		if p[lossyAt+1] == lossy[lossyAt+1] && sameFate == nil {
			sameFate = p
		}
		if p[lossyAt+1] != lossy[lossyAt+1] && otherWay == nil {
			otherWay = p
		}
	}
	if len(lossless) < 5 || sameFate == nil || otherWay == nil {
		t.Fatalf("fixture lacks a long lossless path (%v), a mid-path lossy one (%v) or its neighbours (%v, %v)",
			lossless, lossy, sameFate, otherWay)
	}

	shuffled := append([]routing.Path(nil), sorted...)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	// Ascending slot order of a shuffled admission: slots follow first
	// admission, so a walk sees the shuffled list; half of it, in order,
	// is what a partial revival walks.
	var half []routing.Path
	for i, p := range shuffled {
		if i%2 == 0 {
			half = append(half, p)
		}
	}
	return g, rs, []resumeOrder{
		{"enumeration order", sorted},
		{"every other slot of a shuffled admission", half},
		{"shuffled: no prefix shared", shuffled},
		{"path, its proper prefixes, itself", []routing.Path{
			lossless, lossless[:len(lossless)-1], lossless[:2], lossless[:1], lossless, lossless, lossless[:3], lossless}},
		{"lossy, then paths sharing the lossy prefix", []routing.Path{
			lossy, sameFate, lossy, otherWay, lossy[:lossyAt+1], lossy[:lossyAt+2], lossy, sameFate, lossy[:lossyAt+3]}},
		{"short after long after short", []routing.Path{
			lossless[:2], lossless, lossless[:3], lossy, lossless[:2], {}, lossless}},
		{"empty list", nil},
	}
}

// TestReplayerResumeAdversarial walks every order of resumeOrders:
//
//   - buildRuleGraphN must equal the reference graph — same vertices and
//     edges in the same interning order — and the same violation list,
//     for every worker count 1-4 (each shard starts a replayer cold, so
//     shard boundaries move through the list);
//   - one replayer walking the list must report, for every path, the
//     hops, keys and verdict of a from-scratch replay.
func TestReplayerResumeAdversarial(t *testing.T) {
	g, rs, cases := resumeOrders(t)
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

		var r replayer
		r.reset(rs, 1)
		for i, p := range tc.paths {
			wantChain, wantKeys, wantOK := replayFromScratch(g, p, rs)
			_, ok := r.replay(p, appendHopPorts(g, p, nil))
			var chain []uint32
			for _, h := range r.hops {
				chain = append(chain, packTagKey(h.port, h.tag))
			}
			if ok != wantOK || !slices.Equal(chain, wantChain) || !slices.Equal(r.keys, wantKeys) {
				t.Fatalf("%s, path %d %s: resumed replay (ok=%v, %d hops, %d keys) differs from scratch (ok=%v, %d hops, %d keys)",
					tc.name, i, p.String(g), ok, len(chain), len(r.keys), wantOK, len(wantChain), len(wantKeys))
			}
		}
	}
}

// TestRsReplayerResumeAdversarial runs the orders of resumeOrders through
// Resynth.replay, which packs only the hops the replayer did not resume
// onto the chain it kept from the previous path, and requires every
// replay's chain, keys and verdict to equal a from-scratch replay of the
// same path.
func TestRsReplayerResumeAdversarial(t *testing.T) {
	g, rs, cases := resumeOrders(t)
	for _, tc := range cases {
		var r Resynth
		r.rp.reset(rs, 1)
		for i, p := range tc.paths {
			wantChain, wantKeys, wantOK := replayFromScratch(g, p, rs)
			chain, keys, ok := r.replay(p, appendHopPorts(g, p, nil))
			if ok != wantOK || !slices.Equal(chain, wantChain) || !slices.Equal(keys, wantKeys) {
				t.Fatalf("%s, path %d %s: resumed replay (ok=%v, %d hops, %d keys) differs from scratch (ok=%v, %d hops, %d keys)",
					tc.name, i, p.String(g), ok, len(chain), len(keys), wantOK, len(wantChain), len(wantKeys))
			}
		}
	}
}
