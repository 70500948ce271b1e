package synthcache

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/elp"
	"repro/internal/fingerprint"
	"repro/internal/routing"
	"repro/internal/sweep"
	"repro/internal/topology"
)

// This file implements pod-isomorphism memoization for the Clos-optimal
// synthesis pipeline (KBounce ELP enumeration + ClosSynthesize). On a
// uniform multi-pod fabric the k-bounce path set between pods (p, q) is
// the image of the (0, 1) set under the pod-permutation automorphism
// σ_{p,q}, so the expensive enumeration and replay run only for the
// representative pod pair and the rest is stamped out by dense node-ID
// translation:
//
//   - ELP: the true path set decomposes into per-pod-pair buckets by
//     endpoint membership. Bucket (p,p) = σ_{p,q}(bucket (0,0)) and
//     bucket (p,q) = σ_{p,q}(bucket (0,1)) for ANY automorphism sending
//     0->p (and 1->q), because bucket membership depends on endpoints
//     only while σ bijects the full k-bounce path universe. Stamping is
//     therefore exact, not approximate.
//   - Rules: ClosRules is purely local and layer-based, so it is emitted
//     once over the full graph (cheap) and is invariant under every
//     layer-preserving automorphism — which is also why losslessness of
//     the replayed representative buckets transfers to every stamped
//     image: replaying σ(path) over σ-invariant rules yields the same
//     tag sequence.
//   - Runtime graph: the tagged chain of σ(path) is the port-wise image
//     of path's chain, so the full runtime equals the union of the
//     representative fragment's images under all σ_{p,q}. The union is
//     idempotent, so overlapping coverage (every σ_{p,q} re-contributes
//     some intra-pod chains) is harmless.
//
// The result is rule-for-rule and runtime-graph identical to from-scratch
// ClosSynthesize over the full KBounce set; `make cache-fuzz` enforces
// that with the internal/check differential oracle.

// ClosKBounce is a memoized and pod-stamped equivalent of
//
//	set := elp.KBounce(g, endpoints, maxBounces, nil)
//	sys, err := core.ClosSynthesize(g, set.Paths(), maxBounces)
//	image := tcam.NewCompiled(sys.Rules, 0)
//
// The cache key covers the graph fingerprint, the endpoint roster (as
// canonical positions, order-sensitive) and the failed-link set — unlike
// rule synthesis, path ENUMERATION routes around failed links, so health
// is part of this key.
func (c *Cache) ClosKBounce(g *topology.Graph, endpoints []topology.NodeID, maxBounces int) (Result, error) {
	canon := c.canonOf(g)
	params := make([]int, 1, len(endpoints)+1)
	params[0] = maxBounces
	for _, ep := range endpoints {
		params = append(params, int(canon.Pos[ep]))
	}
	key := fingerprint.Key("closkb", params, canon.FP, fingerprint.HealthSum(canon, g))

	return c.serve(g, key, 0, func() (*core.System, bool, error) {
		return c.podStampedBuild(g, endpoints, maxBounces)
	})
}

// podStampedBuild synthesizes via representative-pod stamping when the
// fabric shape allows it, falling back to the plain full enumeration
// otherwise. The bool reports whether stamping was used.
func (c *Cache) podStampedBuild(g *topology.Graph, endpoints []topology.NodeID, maxBounces int) (*core.System, bool, error) {
	d, ok := fingerprint.Decompose(g)
	// Stamping needs >= 3 uniform pods to beat full enumeration (with 2
	// pods the representative set IS the full set) and a pod-symmetric
	// endpoint roster.
	if !ok || !d.Uniform || len(d.Pods) < 3 || !endpointsPodUniform(d, endpoints) {
		set := elp.KBounce(g, endpoints, maxBounces, nil)
		sys, err := core.ClosSynthesize(g, set.Paths(), maxBounces)
		return sys, false, err
	}
	sys, err := stampClosSystem(g, d, endpoints, maxBounces)
	if err != nil {
		return nil, false, err
	}
	c.count(&c.podStamped, "pod_stamped")
	return sys, true, nil
}

// endpointsPodUniform reports whether every endpoint is a pod member and
// every pod carries the same multiset of member positions — the license
// to map pod 0's endpoint set onto pod p's by position.
func endpointsPodUniform(d *fingerprint.PodDecomposition, endpoints []topology.NodeID) bool {
	if len(endpoints) == 0 {
		return false
	}
	per := make([][]int, len(d.Pods))
	for _, ep := range endpoints {
		pi := d.PodOf(ep)
		if pi < 0 {
			return false
		}
		per[pi] = append(per[pi], d.MemberPos(ep))
	}
	for _, ps := range per {
		sort.Ints(ps)
	}
	for i := 1; i < len(per); i++ {
		if len(per[i]) != len(per[0]) {
			return false
		}
		for j := range per[i] {
			if per[i][j] != per[0][j] {
				return false
			}
		}
	}
	return len(per[0]) > 0
}

// stampClosSystem runs the representative enumeration + replay and stamps
// the full system out of it.
func stampClosSystem(g *topology.Graph, d *fingerprint.PodDecomposition,
	endpoints []topology.NodeID, maxBounces int) (*core.System, error) {

	rep, repPaths := enumerateRep(g, d, endpoints, maxBounces)

	// Rules are emitted over the full graph directly — ClosRules is local
	// and cheap — and replayed over the representative buckets only.
	// Losslessness of every stamped image follows from the rules'
	// invariance under the pod automorphisms (see file comment).
	rules := core.ClosRules(g, maxBounces, 1)
	frag, violations := core.BuildRuleGraph(rules, repPaths, 1)
	if len(violations) > 0 {
		return nil, fmt.Errorf("core: clos rules leave %d ELP paths lossy (representative pod pair); does the ELP exceed %d bounces?",
			len(violations), maxBounces)
	}

	pairs := podPairs(d, rep)
	stamped, err := stampELP(rep, pairs)
	if err != nil {
		return nil, err
	}
	runtime := stampRuntime(g, frag, pairs)
	if err := runtime.Verify(); err != nil {
		return nil, fmt.Errorf("clos runtime graph (pod-stamped): %w", err)
	}
	return &core.System{Graph: g, ELP: stamped, Rules: rules, Runtime: runtime}, nil
}

// repBuckets is the representative path set in stamping layout: bucket
// (0,0)'s paths back to back in one node array, then bucket (0,1)'s, so
// the image of either "both buckets" or "(0,1) only" under a node map is
// one table pass over a suffix of nodes.
type repBuckets struct {
	nodes []topology.NodeID
	ends  []int // path i is nodes[ends[i-1]:ends[i]], with ends[-1] = 0
	n00   int   // ends[:n00] is bucket (0,0)
	e00   int   // nodes[:e00] is bucket (0,0)
}

// enumerateRep enumerates the representative pairs — pod-0 sources toward
// pod-0 destinations, then the same sources toward pod-1 destinations,
// all in roster order — straight into the stamping layout, and returns it
// with the same paths as a validated list of views into it. Per-pair
// enumeration is independent of the rest of the roster, so these are
// buckets (0,0) and (0,1) of the full enumeration exactly, each in its
// order. Buckets (1,0) and (1,1) are their automorphic images: the
// stamping pass regenerates their content, so they are never enumerated.
func enumerateRep(g *topology.Graph, d *fingerprint.PodDecomposition,
	endpoints []topology.NodeID, maxBounces int) (*repBuckets, []routing.Path) {

	var pod [2][]topology.NodeID
	for _, ep := range endpoints {
		if p := d.PodOf(ep); p == 0 || p == 1 {
			pod[p] = append(pod[p], ep)
		}
	}
	e := elp.NewKBounceEnumerator(g, maxBounces, nil)
	e.From(pod[0], pod[0])
	n00, e00 := e.List.Len(), len(e.List.Nodes)
	e.From(pod[0], pod[1])
	return &repBuckets{nodes: e.List.Nodes, ends: e.List.Ends, n00: n00, e00: e00}, e.Set().Paths()
}

// count is the number of paths one pod pair stamps: bucket (0,1), plus
// bucket (0,0) when the pair carries its pod's intra-pod content.
func (r *repBuckets) count(intra bool) int {
	if intra {
		return len(r.ends)
	}
	return len(r.ends) - r.n00
}

// podPair is one ordered pod pair (p, q) of the stamping pass.
type podPair struct {
	nm []topology.NodeID // σ_{p,q}: pod 0 -> p, pod 1 -> q, as a node map
	// intra marks p's first partner: intra-pod content is stamped once
	// per pod, there, to keep the path list duplicate-free.
	intra bool
	off   int // index of the pair's first path in the stamped ELP
}

// podPairs lists every ordered pod pair in stamping order — p ascending,
// then q ascending, each contributing [bucket (0,0)], bucket (0,1) — with
// its node map and its offset into the stamped ELP.
func podPairs(d *fingerprint.PodDecomposition, rep *repBuckets) []podPair {
	nPods := len(d.Pods)
	pairs := make([]podPair, 0, nPods*(nPods-1))
	off := 0
	for p := 0; p < nPods; p++ {
		firstPartner := 0
		if p == 0 {
			firstPartner = 1
		}
		for q := 0; q < nPods; q++ {
			if q == p {
				continue
			}
			pr := podPair{nm: d.Translate(fingerprint.PodPerm(nPods, p, q)), intra: q == firstPartner, off: off}
			off += rep.count(pr.intra)
			pairs = append(pairs, pr)
		}
	}
	return pairs
}

// stampELP materializes the full ELP: every pair's image of its
// representative buckets, in podPairs order. Each pair owns a disjoint
// range of the result and a private arena, so pairs are stamped
// concurrently and the output does not depend on the worker count.
func stampELP(rep *repBuckets, pairs []podPair) ([]routing.Path, error) {
	// A node map must cover every node it is applied to. It is applied to
	// the same few nodes millions of times, so check it once per distinct
	// node — in the order the stamping pass first meets them — before
	// anything is allocated.
	numNodes := len(pairs[0].nm)
	distinctAll, distinct01 := distinctNodes(rep.nodes, numNodes), distinctNodes(rep.nodes[rep.e00:], numNodes)
	for _, pr := range pairs {
		check := distinct01
		if pr.intra {
			check = distinctAll
		}
		for _, n := range check {
			if pr.nm[n] == topology.InvalidNode {
				return nil, fmt.Errorf("synthcache: path node %d not covered by pod translation", n)
			}
		}
	}

	last := pairs[len(pairs)-1]
	stamped := make([]routing.Path, last.off+rep.count(last.intra))
	sweep.ForEachShard(len(pairs), sweep.Workers(0, len(pairs)), func(sh sweep.Shard) {
		for _, pr := range pairs[sh.Lo:sh.Hi] {
			lo, first := rep.e00, rep.n00
			if pr.intra {
				lo, first = 0, 0
			}
			src, nm := rep.nodes[lo:], pr.nm
			arena := make([]topology.NodeID, len(src))
			for i, n := range src {
				arena[i] = nm[n]
			}
			out := stamped[pr.off:]
			start := 0
			for j, end := range rep.ends[first:] {
				end -= lo
				out[j] = routing.Path(arena[start:end:end])
				start = end
			}
		}
	})
	return stamped, nil
}

// distinctNodes returns the distinct values of nodes, all below numNodes,
// in first-occurrence order.
func distinctNodes(nodes []topology.NodeID, numNodes int) []topology.NodeID {
	var out []topology.NodeID
	seen := make([]bool, numNodes)
	for _, n := range nodes {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// stampRuntime builds the full runtime graph as the union of the
// representative fragment's images under every pair's node map.
func stampRuntime(g *topology.Graph, frag *core.TaggedGraph, pairs []podPair) *core.TaggedGraph {
	fragNodes := frag.Nodes()
	fragEdges := frag.Edges()
	runtime := core.NewTaggedGraph(g)
	// portMap[pid] is pid's image under the current pair's node map when
	// stamp[pid] == the pair's number (from 1): dense over the graph's
	// ports, never cleared.
	portMap := make([]topology.PortID, g.NumPorts())
	stamp := make([]int32, g.NumPorts())
	for pi, pr := range pairs {
		// A fragment node is an ingress port: the lowest-numbered port on
		// the hop facing its predecessor (Port.Peer). Its image is the
		// lowest-numbered port on σ(hop) facing σ(predecessor) — exactly
		// what replay of the stamped path would intern.
		nm, cur := pr.nm, int32(pi+1)
		tp := func(pid topology.PortID) topology.PortID {
			if stamp[pid] == cur {
				return portMap[pid]
			}
			pt := g.Port(pid)
			v := g.PortOn(nm[pt.Node], g.PortToPeer(nm[pt.Node], nm[pt.Peer]))
			portMap[pid], stamp[pid] = v, cur
			return v
		}
		for _, n := range fragNodes {
			runtime.AddNode(core.TagNode{Port: tp(n.Port), Tag: n.Tag})
		}
		for _, ed := range fragEdges {
			runtime.AddEdge(
				core.TagNode{Port: tp(ed.From.Port), Tag: ed.From.Tag},
				core.TagNode{Port: tp(ed.To.Port), Tag: ed.To.Tag},
			)
		}
	}
	return runtime
}
