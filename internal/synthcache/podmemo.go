package synthcache

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/elp"
	"repro/internal/fingerprint"
	"repro/internal/routing"
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

	nPods := len(d.Pods)

	// Representative roster: the endpoints of pods 0 and 1, in original
	// roster order. Per-pair enumeration in elp.KBounce is independent of
	// the rest of the roster, so the representative buckets equal the
	// corresponding buckets of the full enumeration exactly.
	var rep []topology.NodeID
	for _, ep := range endpoints {
		if pi := d.PodOf(ep); pi == 0 || pi == 1 {
			rep = append(rep, ep)
		}
	}
	repSet := elp.KBounce(g, rep, maxBounces, nil)

	// Bucket the representative paths by endpoint pods. (1,0) and (1,1)
	// are automorphic images of (0,1) and (0,0); dropping them loses
	// nothing — the stamping loop regenerates their content.
	var b00, b01 []routing.Path
	n00, n01 := 0, 0
	for _, p := range repSet.Paths() {
		sp, dp := d.PodOf(p[0]), d.PodOf(p[len(p)-1])
		switch {
		case sp == 0 && dp == 0:
			b00 = append(b00, p)
			n00 += len(p)
		case sp == 0 && dp == 1:
			b01 = append(b01, p)
			n01 += len(p)
		}
	}

	// Rules are emitted over the full graph directly — ClosRules is local
	// and cheap — and replayed over the representative buckets only.
	// Losslessness of every stamped image follows from the rules'
	// invariance under the pod automorphisms (see file comment).
	rules := core.ClosRules(g, maxBounces, 1)
	frag, violations := core.BuildRuleGraph(rules, append(append([]routing.Path{}, b00...), b01...), 1)
	if len(violations) > 0 {
		return nil, fmt.Errorf("core: clos rules leave %d ELP paths lossy (representative pod pair); does the ELP exceed %d bounces?",
			len(violations), maxBounces)
	}
	fragNodes := frag.Nodes()
	fragEdges := frag.Edges()

	// Stamp the ELP into one arena and the runtime graph by translating
	// the fragment under every σ_{p,q}. Intra-pod content is stamped once
	// per pod (on p's first partner) to keep the path list duplicate-free.
	arena := make([]topology.NodeID, 0, nPods*n00+nPods*(nPods-1)*n01)
	stamped := make([]routing.Path, 0, nPods*len(b00)+nPods*(nPods-1)*len(b01))
	stampPaths := func(nm []topology.NodeID, src []routing.Path) error {
		for _, p := range src {
			start := len(arena)
			for _, n := range p {
				m := nm[n]
				if m == topology.InvalidNode {
					return fmt.Errorf("synthcache: path node %d not covered by pod translation", n)
				}
				arena = append(arena, m)
			}
			stamped = append(stamped, routing.Path(arena[start:len(arena):len(arena)]))
		}
		return nil
	}

	runtime := core.NewTaggedGraph(g)
	portMap := make(map[topology.PortID]topology.PortID, len(fragNodes))
	for p := 0; p < nPods; p++ {
		firstPartner := 0
		if p == 0 {
			firstPartner = 1
		}
		for q := 0; q < nPods; q++ {
			if q == p {
				continue
			}
			nm := d.Translate(fingerprint.PodPerm(nPods, p, q))
			if q == firstPartner {
				if err := stampPaths(nm, b00); err != nil {
					return nil, err
				}
			}
			if err := stampPaths(nm, b01); err != nil {
				return nil, err
			}

			// Fragment image under σ_{p,q}. A fragment node is an ingress
			// port: the lowest-numbered port on the hop facing its
			// predecessor (Port.Peer). Its image is the lowest-numbered
			// port on σ(hop) facing σ(predecessor) — exactly what replay
			// of the stamped path would intern.
			clear(portMap)
			tp := func(pid topology.PortID) topology.PortID {
				if v, ok := portMap[pid]; ok {
					return v
				}
				pt := g.Port(pid)
				v := g.PortOn(nm[pt.Node], g.PortToPeer(nm[pt.Node], nm[pt.Peer]))
				portMap[pid] = v
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
	}

	if err := runtime.Verify(); err != nil {
		return nil, fmt.Errorf("clos runtime graph (pod-stamped): %w", err)
	}
	return &core.System{Graph: g, ELP: stamped, Rules: rules, Runtime: runtime}, nil
}
