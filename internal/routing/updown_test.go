package routing

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"

	"repro/internal/topology"
)

// bruteWalk is one valley-free walk with the phase it reached each node
// in (0 while ascending, 1 once it has stepped down).
type bruteWalk struct {
	nodes  Path
	phases []int
}

// bruteUpDown is the reference for Segments: every valley-free walk from
// src by exhaustive DFS over Graph.Neighbors (layers change strictly on
// every hop, so walks are short and the DFS needs no visited set), hosts
// other than src never forwarding, the first hop ascending under firstUp;
// those that end at dst in the fewest hops; distinct node sequences only
// (Neighbors repeats a peer once per parallel link), sorted by Path.Key().
func bruteUpDown(g *topology.Graph, src, dst topology.NodeID, firstUp bool) []Path {
	if src == dst {
		return []Path{{src}}
	}
	var found []bruteWalk
	var dfs func(w bruteWalk)
	dfs = func(w bruteWalk) {
		cur, phase := w.nodes[len(w.nodes)-1], w.phases[len(w.phases)-1]
		if cur == dst {
			found = append(found, bruteWalk{slices.Clone(w.nodes), slices.Clone(w.phases)})
		}
		if cur != src && g.Node(cur).Kind == topology.KindHost {
			return
		}
		for _, v := range g.Neighbors(cur, nil) {
			switch lc, lv := g.Node(cur).Layer, g.Node(v).Layer; {
			case lv > lc && phase == 0:
				dfs(bruteWalk{append(w.nodes, v), append(w.phases, 0)})
			case lv < lc && !(firstUp && len(w.nodes) == 1):
				dfs(bruteWalk{append(w.nodes, v), append(w.phases, 1)})
			}
		}
	}
	dfs(bruteWalk{Path{src}, []int{0}})

	best := -1
	for _, w := range found {
		if best < 0 || len(w.nodes) < best {
			best = len(w.nodes)
		}
	}
	seen := map[string]bool{}
	var shortest []bruteWalk
	for _, w := range found {
		if len(w.nodes) == best && !seen[w.nodes.Key()] {
			seen[w.nodes.Key()] = true
			shortest = append(shortest, w)
		}
	}
	var out []Path
	for _, w := range shortest {
		out = append(out, w.nodes)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Key() < out[b].Key() })
	return out
}

// leafSpine is a two-layer Clos: hosts (layer 0) under leaves (1) under
// spines (2).
func leafSpine(leaves, spines, hostsPerLeaf int) *topology.Graph {
	g := topology.New()
	var sp []topology.NodeID
	for s := 0; s < spines; s++ {
		sp = append(sp, g.AddNode(fmt.Sprintf("S%d", s), topology.KindSpine, 2))
	}
	for l := 0; l < leaves; l++ {
		leaf := g.AddNode(fmt.Sprintf("L%d", l), topology.KindLeaf, 1)
		for _, s := range sp {
			g.Connect(leaf, s)
		}
		for h := 0; h < hostsPerLeaf; h++ {
			g.Connect(g.AddNode(fmt.Sprintf("H%d.%d", l, h), topology.KindHost, 0), leaf)
		}
	}
	return g
}

type segFabric struct {
	name string
	g    *topology.Graph
}

func segFabrics(t *testing.T) []segFabric {
	t.Helper()
	clos3, err := topology.NewClos(topology.ClosConfig{Pods: 2, ToRsPerPod: 2, LeafsPerPod: 2, Spines: 2, HostsPerToR: 1})
	if err != nil {
		t.Fatal(err)
	}
	ft, err := topology.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	// One ToR-leaf and one leaf-spine pair doubled: Neighbors lists the
	// peer twice, the segment list must not.
	par, err := topology.NewClos(topology.ClosConfig{Pods: 2, ToRsPerPod: 2, LeafsPerPod: 2, Spines: 2, HostsPerToR: 1})
	if err != nil {
		t.Fatal(err)
	}
	par.Graph.Connect(par.ToRs[0], par.Leaves[0])
	par.Graph.Connect(par.Leaves[1], par.Spines[1])
	return []segFabric{
		{"leafspine", leafSpine(4, 3, 1)},
		{"clos3", clos3.Graph},
		{"fattree4", ft.Graph},
		{"clos3-parallel-links", par.Graph},
	}
}

func equalPathLists(a, b []Path) bool {
	return slices.EqualFunc(a, b, func(p, q Path) bool { return p.Equal(q) })
}

// TestSegmentsMatchBruteForce: on every fabric, with 0-3 seeded failed
// links, a fresh Segments per query agrees with the brute force for every
// ordered node pair (hosts included) in both first-hop modes, and one
// shared Segments snapshot answers every pair the same way. All fabrics
// have more than 10 nodes, so Key order differs from numeric order.
func TestSegmentsMatchBruteForce(t *testing.T) {
	for _, f := range segFabrics(t) {
		g := f.g
		if g.NumNodes() < 11 {
			t.Fatalf("%s: %d nodes; decimal-string order needs > 10", f.name, g.NumNodes())
		}
		rng := rand.New(rand.NewSource(7))
		links := g.SwitchLinks()
		for failed := 0; failed <= 3; failed++ {
			if failed > 0 {
				l := links[rng.Intn(len(links))]
				g.FailLink(g.MustLookup(l[0]), g.MustLookup(l[1]))
			}
			shared := NewSegments(g)
			revisits := 0
			for _, a := range g.Nodes() {
				for _, b := range g.Nodes() {
					for _, firstUp := range []bool{false, true} {
						want := bruteUpDown(g, a, b, firstUp)
						if got := NewSegments(g).Between(a, b, firstUp); !equalPathLists(got, want) {
							t.Fatalf("%s failed=%d %d->%d firstUp=%v:\n got %v\nwant %v",
								f.name, failed, a, b, firstUp, got, want)
						}
						got := shared.Between(a, b, firstUp)
						if !equalPathLists(got, want) {
							t.Fatalf("%s failed=%d %d->%d firstUp=%v shared snapshot:\n got %v\nwant %v",
								f.name, failed, a, b, firstUp, got, want)
						}
						// What KBounce's loop test leans on: a segment never
						// repeats a node, except that a first-hop-ascending
						// one may come back through its source.
						for _, p := range got {
							if !p.LoopFree() {
								revisits++
								if !firstUp || !p[1:].LoopFree() || !slices.Contains(p[1:], a) {
									t.Fatalf("%s %d->%d firstUp=%v: %v repeats a node other than its source",
										f.name, a, b, firstUp, p)
								}
							}
						}
					}
				}
			}
			if revisits == 0 {
				t.Errorf("%s failed=%d: no first-up segment came back through its source; the case is untested", f.name, failed)
			}
		}
	}
}

func TestDecimalRanksMatchStringSort(t *testing.T) {
	for _, n := range []int{0, 1, 2, 9, 10, 11, 12, 99, 100, 101, 110, 999, 1000, 1001, 1234} {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		sort.Slice(ids, func(a, b int) bool { return strconv.Itoa(ids[a]) < strconv.Itoa(ids[b]) })
		rank := decimalRanks(n)
		for pos, id := range ids {
			if int(rank[id]) != pos {
				t.Fatalf("n=%d: rank[%d] = %d, want %d", n, id, rank[id], pos)
			}
		}
	}
}

// TestSegmentsSnapshot: a Segments sees the link health of its creation.
func TestSegmentsSnapshot(t *testing.T) {
	c := paperClos(t)
	g := c.Graph
	t1, t3 := g.MustLookup("T1"), g.MustLookup("T3")
	s := NewSegments(g)
	g.FailLink(t1, g.MustLookup("L1"))
	if got := len(s.Between(t1, t3, false)); got != 8 {
		t.Errorf("snapshot: %d paths, want the 8 of the healthy fabric", got)
	}
	if got := len(NewSegments(g).Between(t1, t3, false)); got != 4 {
		t.Errorf("fresh snapshot: %d paths, want 4 with T1-L1 down", got)
	}
}

func TestPathList(t *testing.T) {
	var l PathList
	want := []Path{{1, 2, 3}, {4}, {}, {5, 6}}
	for i := 0; i < 300; i++ { // force both arrays to grow several times
		l.Add(want[i%len(want)])
	}
	if l.Len() != 300 {
		t.Fatalf("Len = %d", l.Len())
	}
	for i := 0; i < l.Len(); i++ {
		p := l.At(i)
		if !p.Equal(want[i%len(want)]) {
			t.Fatalf("At(%d) = %v, want %v", i, p, want[i%len(want)])
		}
		if cap(p) != len(p) {
			t.Fatalf("At(%d): cap %d beyond len %d — an append would overwrite the next path", i, cap(p), len(p))
		}
	}
}
