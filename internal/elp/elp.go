// Package elp builds and validates Expected Lossless Path (ELP) sets.
//
// An ELP set is the operator-supplied input to Tagger (§4.1 of the paper):
// the routes that must remain lossless. Any loop-free route may be
// included. This package provides the enumerators the paper's evaluation
// uses: all shortest up-down paths on Clos, paths with up to k bounces,
// per-pair shortest paths on arbitrary topologies (Jellyfish, BCube), and
// extra random paths (Table 5's last row).
package elp

import (
	"fmt"
	"math/rand"

	"repro/internal/routing"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// Set is a deduplicated collection of loop-free expected lossless paths.
// The zero value is an empty set.
type Set struct {
	ix routing.PathIndex
}

// NewSet returns an empty ELP set.
func NewSet() *Set { return &Set{} }

// Reserve sizes the set to hold n paths without growing.
func (s *Set) Reserve(n int) { s.ix.Reserve(n) }

// Add validates and inserts a path; duplicates are ignored. It returns an
// error for paths that are empty, contain a repeated node, or traverse
// non-adjacent node pairs.
func (s *Set) Add(g *topology.Graph, p routing.Path) error {
	if len(p) == 0 {
		return fmt.Errorf("elp: empty path")
	}
	if !p.LoopFree() {
		return fmt.Errorf("elp: path %s has a loop", p.String(g))
	}
	if !p.Valid(g) {
		return fmt.Errorf("elp: path %s traverses non-adjacent nodes", p.String(g))
	}
	s.ix.Add(p)
	return nil
}

// MustAdd is Add that panics on invalid paths; for fixed test fixtures.
func (s *Set) MustAdd(g *topology.Graph, p routing.Path) {
	if err := s.Add(g, p); err != nil {
		panic(err)
	}
}

// AddAll adds every path, returning the first validation error.
func (s *Set) AddAll(g *topology.Graph, paths []routing.Path) error {
	for _, p := range paths {
		if err := s.Add(g, p); err != nil {
			return err
		}
	}
	return nil
}

// Paths returns the paths in insertion order. The slice is shared; do not
// modify it.
func (s *Set) Paths() []routing.Path { return s.ix.Paths() }

// Len returns the number of distinct paths.
func (s *Set) Len() int { return s.ix.Len() }

// Contains reports whether the exact node sequence is in the set.
func (s *Set) Contains(p routing.Path) bool {
	_, ok := s.ix.Find(p)
	return ok
}

// LongestHops returns the maximum hop count over the set (0 for empty).
func (s *Set) LongestHops() int {
	m := 0
	for _, p := range s.Paths() {
		if h := p.Hops(); h > m {
			m = h
		}
	}
	return m
}

// UpDownAll adds, for every ordered pair of the given endpoints, every
// shortest valley-free path. Endpoints are typically the ToR switches of a
// Clos. Unreachable pairs are skipped.
func UpDownAll(g *topology.Graph, endpoints []topology.NodeID) *Set {
	defer telemetry.Default.StartSpan("synth/elp").End()
	s := NewSet()
	segs := routing.NewSegments(g)
	for _, a := range endpoints {
		for _, b := range endpoints {
			if a == b {
				continue
			}
			for _, p := range segs.Between(a, b, false) {
				s.MustAdd(g, p)
			}
		}
	}
	return s
}

// KBounce adds, for every ordered endpoint pair, every loop-free path that
// is a concatenation of at most k+1 shortest valley-free segments joined
// at bounce switches — i.e. all paths with at most k bounces (§4.3). The
// junction switches may be any switch in via (defaults to all switches
// when via is nil). Paths that revisit a node are discarded, matching the
// paper's loop-free requirement on ELP routes.
//
// The shortest (0-bounce) paths are included, so the result is the
// "shortest plus up-to-k-bounce" ELP the paper uses for Clos.
func KBounce(g *topology.Graph, endpoints []topology.NodeID, k int, via []topology.NodeID) *Set {
	return KBounceFrom(g, endpoints, endpoints, k, via)
}

// KBounceFrom is KBounce restricted to the ordered pairs srcs × dsts
// (sources outermost, a == b skipped). Enumeration of one pair does not
// depend on any other pair, so the result is KBounce over any roster
// containing both lists, filtered to these pairs, in the same order.
func KBounceFrom(g *topology.Graph, srcs, dsts []topology.NodeID, k int, via []topology.NodeID) *Set {
	defer telemetry.Default.StartSpan("synth/elp").End()
	e := NewKBounceEnumerator(g, k, via)
	e.From(srcs, dsts)
	return e.Set()
}

// KBounceEnumerator enumerates k-bounce paths over one snapshot of a
// graph's healthy links into List, for callers that want the flat layout
// or several source × destination blocks in an order of their choosing.
type KBounceEnumerator struct {
	// List holds every path emitted so far, in emission order. No path
	// occurs twice: a path's junctions are exactly its valleys, so its
	// node sequence fixes the one way it decomposes into segments.
	List routing.PathList

	g    *topology.Graph
	k    int
	via  []topology.NodeID
	segs *routing.Segments
	// prefix is the path under construction; onPath marks its nodes.
	prefix routing.Path
	onPath []bool
}

// NewKBounceEnumerator snapshots g; k and via are as in KBounce.
func NewKBounceEnumerator(g *topology.Graph, k int, via []topology.NodeID) *KBounceEnumerator {
	if via == nil {
		via = g.Switches()
	}
	return &KBounceEnumerator{g: g, k: k, via: via, segs: routing.NewSegments(g), onPath: make([]bool, g.NumNodes())}
}

// From appends the k-bounce paths of the ordered pairs srcs × dsts
// (sources outermost, a == b skipped) to List.
func (e *KBounceEnumerator) From(srcs, dsts []topology.NodeID) {
	for _, a := range srcs {
		e.prefix = append(e.prefix[:0], a)
		e.onPath[a] = true
		for _, b := range dsts {
			if a != b {
				e.extend(e.k, b, false)
			}
		}
		e.onPath[a] = false
	}
}

// Set returns List's paths as a validated set: every path goes through
// Set.Add. The set's paths are views into List as it stands.
func (e *KBounceEnumerator) Set() *Set {
	s := NewSet()
	s.Reserve(e.List.Len())
	for i := 0; i < e.List.Len(); i++ {
		s.MustAdd(e.g, e.List.At(i))
	}
	if s.Len() != e.List.Len() {
		panic("elp: k-bounce enumeration emitted a path twice")
	}
	return s
}

// extend grows prefix toward dst. mustAscend is set right after a bounce
// junction: the packet arrived descending, so the next segment must leave
// ascending or the junction was not a bounce at all.
func (e *KBounceEnumerator) extend(bouncesLeft int, dst topology.NodeID, mustAscend bool) {
	n := len(e.prefix)
	cur := e.prefix[n-1]
	// Finish directly.
	for _, seg := range e.segs.Between(cur, dst, mustAscend) {
		if e.disjoint(seg) {
			e.prefix = append(e.prefix, seg[1:]...)
			e.List.Add(e.prefix)
			e.prefix = e.prefix[:n]
		}
	}
	if bouncesLeft == 0 {
		return
	}
	// Bounce at an intermediate switch x, then continue ascending.
	for _, x := range e.via {
		if x == cur || x == dst {
			continue
		}
		for _, seg := range e.segs.Between(cur, x, mustAscend) {
			// A genuine bounce requires arriving at x descending.
			if e.g.Node(x).Layer >= e.g.Node(seg[len(seg)-2]).Layer || !e.disjoint(seg) {
				continue
			}
			e.prefix = append(e.prefix, seg[1:]...)
			for _, v := range seg[1:] {
				e.onPath[v] = true
			}
			e.extend(bouncesLeft-1, dst, true)
			for _, v := range seg[1:] {
				e.onPath[v] = false
			}
			e.prefix = e.prefix[:n]
		}
	}
}

// disjoint reports whether seg, which starts at prefix's last node, meets
// prefix nowhere else. That is the whole loop test for prefix + seg: a
// shortest valley-free segment repeats no node of its own, except that a
// first-hop-ascending one may pass through its source again — and its
// source is on prefix.
func (e *KBounceEnumerator) disjoint(seg routing.Path) bool {
	for _, v := range seg[1:] {
		if e.onPath[v] {
			return false
		}
	}
	return true
}

// ShortestAll adds one shortest path for every ordered pair of the given
// endpoints (deterministic tie-break). This is the ELP used for Jellyfish
// and BCube scalability (Table 5): "LP is shortest paths". It runs at
// GOMAXPROCS workers; every worker count yields the same set.
func ShortestAll(g *topology.Graph, endpoints []topology.NodeID) *Set {
	return ShortestAllN(g, endpoints, 0)
}

// ShortestAllN is ShortestAll with an explicit worker count (0 =
// GOMAXPROCS, 1 = serial). Sources are sharded across workers — each BFS
// is independent and reads one shared adjacency — and the per-source path
// lists are folded into the set in source order, so every worker count
// yields the same set. A path is validated inside its shard, by the ports
// the adjacency hands the BFS: each hop's port must sit on the hop's node
// and face the node before it, one array read per hop.
func ShortestAllN(g *topology.Graph, endpoints []topology.NodeID, par int) *Set {
	defer telemetry.Default.StartSpan("synth/elp").End()
	leaf, skip := bfsRoles(g, endpoints)
	adj := routing.NewAdjacency(g).Without(skip)
	perSrc := make([][]routing.Path, len(endpoints))
	sweep.ForEachShard(len(endpoints), sweep.Workers(par, len(endpoints)), func(sh sweep.Shard) {
		var sc bfsScratch
		for i := sh.Lo; i < sh.Hi; i++ {
			// One BFS per source covers all destinations.
			perSrc[i], _ = shortestTreePaths(g, adj, leaf, endpoints[i], endpoints, &sc)
		}
	})
	total := 0
	for _, paths := range perSrc {
		total += len(paths)
	}
	s := NewSet()
	s.Reserve(total)
	for _, paths := range perSrc {
		for _, p := range paths {
			s.ix.Add(p) // validated in its shard; Add only deduplicates
		}
	}
	return s
}

// ShortestAllECMP adds every shortest path for each ordered pair, capped
// at limit paths per pair (limit <= 0: unlimited). Exponentially many
// paths can exist; use only on small graphs or with a cap.
func ShortestAllECMP(g *topology.Graph, endpoints []topology.NodeID, limit int) *Set {
	s := NewSet()
	for _, a := range endpoints {
		for _, b := range endpoints {
			if a == b {
				continue
			}
			for _, p := range routing.AllShortestPaths(g, a, b, limit) {
				s.MustAdd(g, p)
			}
		}
	}
	return s
}

// bfsRoles marks the plain hosts of g for the shortest-path BFS: the
// endpoints among them are leaves, reached but not expanded (hosts do not
// forward), and the rest are skipped, left out of the search.
func bfsRoles(g *topology.Graph, endpoints []topology.NodeID) (leaf, skip []bool) {
	leaf, skip = make([]bool, g.NumNodes()), make([]bool, g.NumNodes())
	for _, h := range g.Hosts() {
		skip[h] = true
	}
	for _, e := range endpoints {
		if skip[e] {
			leaf[e], skip[e] = true, false
		}
	}
	return leaf, skip
}

// bfsScratch holds the per-source BFS state so repeated calls (one per
// source, across the whole endpoint set) reuse the same backing arrays.
type bfsScratch struct {
	dist   []int32
	parent []topology.NodeID
	inPort []topology.PortID // the port each reached node was entered by
	queue  []topology.NodeID
	ports  []topology.PortID
}

// shortestTreePaths extracts one shortest path from src to each other
// endpoint using a single BFS over adj with deterministic parent choice.
// ports, a view into sc valid until the next call, runs parallel to the
// paths laid end to end: entry j is the port the j-th node is entered by,
// InvalidPort at each path's source. Every path is checked by hopsValid
// before it is returned; a failure is a bug in the adjacency snapshot.
func shortestTreePaths(g *topology.Graph, adj routing.Adjacency, leaf []bool, src topology.NodeID,
	endpoints []topology.NodeID, sc *bfsScratch) (paths []routing.Path, ports []topology.PortID) {
	n := g.NumNodes()
	if cap(sc.dist) < n {
		sc.dist = make([]int32, n)
		sc.parent = make([]topology.NodeID, n)
		sc.inPort = make([]topology.PortID, n)
	}
	dist, parent, inPort := sc.dist[:n], sc.parent[:n], sc.inPort[:n]
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := append(sc.queue[:0], src)
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		if u != src && leaf[u] {
			continue
		}
		ups := adj.PortsOf(u)
		for k, v := range adj.Of(u) {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				parent[v], inPort[v] = u, ups[k]
				queue = append(queue, v)
			}
		}
	}
	sc.queue = queue
	// All paths of one source share a single backing arena: two
	// allocations per source instead of one per destination.
	total := 0
	count := 0
	for _, b := range endpoints {
		if b != src && dist[b] >= 0 {
			total += int(dist[b]) + 1
			count++
		}
	}
	arena := make([]topology.NodeID, total)
	if cap(sc.ports) < total {
		sc.ports = make([]topology.PortID, total)
	}
	ports = sc.ports[:total]
	out := make([]routing.Path, 0, count)
	off := 0
	for _, b := range endpoints {
		if b == src || dist[b] < 0 {
			continue
		}
		end := off + int(dist[b]) + 1
		p, pp := routing.Path(arena[off:end:end]), ports[off:end]
		for cur, i := b, int(dist[b]); i >= 0; cur, i = parent[cur], i-1 {
			p[i], pp[i] = cur, inPort[cur]
		}
		pp[0] = topology.InvalidPort
		if !p.LoopFree() || !hopsValid(g, p, pp) {
			panic(fmt.Sprintf("elp: BFS tree path %s is not a path of the graph", p.String(g)))
		}
		out = append(out, p)
		off = end
	}
	return out, ports
}

// hopsValid reports whether ports[i] is a port of p[i] that faces p[i-1]
// for every hop i >= 1: then each consecutive pair is adjacent, as
// Set.Add requires, checked without a pair lookup.
func hopsValid(g *topology.Graph, p routing.Path, ports []topology.PortID) bool {
	for i := 1; i < len(p); i++ {
		if ports[i] < 0 || int(ports[i]) >= g.NumPorts() {
			return false
		}
		if pt := g.Port(ports[i]); pt.Node != p[i] || pt.Peer != p[i-1] {
			return false
		}
	}
	return true
}

// HostLevel expands a switch-level path set to host level: every path
// from switch a to switch b becomes one path per (host under a, host
// under b) pair, with the hosts prepended/appended. Host-level ELPs model
// deployments where the NIC stamps the tag and the ToR's host-facing
// ingress is part of the tagged graph. The expansion multiplies the set
// by hostsPerEndpoint^2; limit bounds hosts used per endpoint (0 = all).
func HostLevel(g *topology.Graph, s *Set, limit int) *Set {
	hostsUnder := func(sw topology.NodeID) []topology.NodeID {
		var out []topology.NodeID
		var nbuf []topology.NodeID
		nbuf = g.Neighbors(sw, nbuf)
		for _, nb := range nbuf {
			if g.Node(nb).Kind == topology.KindHost {
				out = append(out, nb)
				if limit > 0 && len(out) == limit {
					break
				}
			}
		}
		return out
	}
	out := NewSet()
	for _, p := range s.Paths() {
		srcs := hostsUnder(p.Src())
		dsts := hostsUnder(p.Dst())
		for _, sh := range srcs {
			for _, dh := range dsts {
				hp := make(routing.Path, 0, len(p)+2)
				hp = append(hp, sh)
				hp = append(hp, p...)
				hp = append(hp, dh)
				out.MustAdd(g, hp)
			}
		}
	}
	return out
}

// RandomPaths adds count random loop-free walks between random endpoint
// pairs (Table 5's "+10,000 random paths" row). Each walk is a random
// simple path of at most maxHops hops found by randomized DFS; pairs with
// no such path are retried with new endpoints. Generation is
// deterministic per seed.
func RandomPaths(g *topology.Graph, endpoints []topology.NodeID, count, maxHops int, seed int64) *Set {
	s := NewSet()
	AddRandomPaths(s, g, endpoints, count, maxHops, seed)
	return s
}

// AddRandomPaths inserts count random loop-free paths into an existing set.
func AddRandomPaths(s *Set, g *topology.Graph, endpoints []topology.NodeID, count, maxHops int, seed int64) {
	if len(endpoints) < 2 {
		return
	}
	rng := rand.New(rand.NewSource(seed))
	var nbuf []topology.NodeID
	attempts := 0
	for added := 0; added < count && attempts < count*50; attempts++ {
		a := endpoints[rng.Intn(len(endpoints))]
		b := endpoints[rng.Intn(len(endpoints))]
		if a == b {
			continue
		}
		p := randomSimplePath(g, a, b, maxHops, rng, &nbuf)
		if p == nil {
			continue
		}
		if !s.Contains(p) {
			s.MustAdd(g, p)
			added++
		}
	}
}

func randomSimplePath(g *topology.Graph, a, b topology.NodeID, maxHops int, rng *rand.Rand, nbuf *[]topology.NodeID) routing.Path {
	if maxHops <= 0 {
		maxHops = 8
	}
	onPath := map[topology.NodeID]bool{a: true}
	var dfs func(cur topology.NodeID, hops int, acc routing.Path) routing.Path
	dfs = func(cur topology.NodeID, hops int, acc routing.Path) routing.Path {
		if cur == b {
			out := make(routing.Path, len(acc))
			copy(out, acc)
			return out
		}
		if hops == maxHops {
			return nil
		}
		if cur != a && g.Node(cur).Kind == topology.KindHost {
			return nil
		}
		*nbuf = g.Neighbors(cur, (*nbuf)[:0])
		nbs := append([]topology.NodeID(nil), *nbuf...)
		rng.Shuffle(len(nbs), func(i, j int) { nbs[i], nbs[j] = nbs[j], nbs[i] })
		for _, v := range nbs {
			if onPath[v] {
				continue
			}
			if v != b && g.Node(v).Kind == topology.KindHost {
				continue
			}
			onPath[v] = true
			if p := dfs(v, hops+1, append(acc, v)); p != nil {
				return p
			}
			delete(onPath, v)
		}
		return nil
	}
	return dfs(a, 0, routing.Path{a})
}
