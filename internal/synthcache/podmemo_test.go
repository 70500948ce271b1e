package synthcache

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/elp"
	"repro/internal/fingerprint"
	"repro/internal/routing"
	"repro/internal/topology"
)

// serialStampClosSystem is the stamper this package shipped before the
// flat, parallel one, kept verbatim as the reference: full enumeration of
// the representative pod pair (all four buckets), per-node append into
// one arena, one pod pair at a time.
func serialStampClosSystem(g *topology.Graph, d *fingerprint.PodDecomposition,
	endpoints []topology.NodeID, maxBounces int) (*core.System, error) {

	nPods := len(d.Pods)

	var rep []topology.NodeID
	for _, ep := range endpoints {
		if pi := d.PodOf(ep); pi == 0 || pi == 1 {
			rep = append(rep, ep)
		}
	}
	repSet := elp.KBounce(g, rep, maxBounces, nil)

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

	rules := core.ClosRules(g, maxBounces, 1)
	frag, violations := core.BuildRuleGraph(rules, append(append([]routing.Path{}, b00...), b01...), 1)
	if len(violations) > 0 {
		return nil, fmt.Errorf("core: clos rules leave %d ELP paths lossy (representative pod pair); does the ELP exceed %d bounces?",
			len(violations), maxBounces)
	}
	fragNodes := frag.Nodes()
	fragEdges := frag.Edges()

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

type stampFabric struct {
	name      string
	g         *topology.Graph
	endpoints []topology.NodeID
}

// stampFabrics are uniform multi-pod fabrics the stamper accepts: two
// fat-trees and a 3-pod Clos whose every pod has lost the same two
// uplinks, which thins the path set without breaking pod symmetry.
func stampFabrics(t *testing.T) []stampFabric {
	t.Helper()
	var out []stampFabric
	for _, k := range []int{4, 6} {
		ft, err := topology.NewFatTree(k)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, stampFabric{fmt.Sprintf("fattree%d", k), ft.Graph, ft.Edges})
	}
	cfg := topology.ClosConfig{Pods: 3, ToRsPerPod: 2, LeafsPerPod: 2, Spines: 4, HostsPerToR: 1}
	c, err := topology.NewClos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < cfg.Pods; p++ {
		leaves := c.Leaves[p*cfg.LeafsPerPod:]
		if !c.Graph.FailLink(leaves[0], c.Spines[0]) || !c.Graph.FailLink(leaves[1], c.Spines[3]) {
			t.Fatal("clos: uplink to fail not found")
		}
	}
	out = append(out, stampFabric{"clos3-failed-uplinks", c.Graph, c.ToRs})
	return out
}

func uniformDecomposition(t *testing.T, f stampFabric) *fingerprint.PodDecomposition {
	t.Helper()
	d, ok := fingerprint.Decompose(f.g)
	if !ok || !d.Uniform || len(d.Pods) < 3 || !endpointsPodUniform(d, f.endpoints) {
		t.Fatalf("%s: not a stampable fabric (ok=%v)", f.name, ok)
	}
	return d
}

// requireSameSystem asserts element-for-element equality: ELP order and
// content, rules, and the runtime graph's interned node and edge order.
func requireSameSystem(t *testing.T, got, want *core.System) {
	t.Helper()
	if len(got.ELP) != len(want.ELP) {
		t.Fatalf("ELP: %d paths, want %d", len(got.ELP), len(want.ELP))
	}
	for i := range want.ELP {
		if !got.ELP[i].Equal(want.ELP[i]) {
			t.Fatalf("ELP[%d] = %v, want %v", i, got.ELP[i], want.ELP[i])
		}
	}
	if !reflect.DeepEqual(got.Rules.Rules(), want.Rules.Rules()) {
		t.Fatal("rules differ")
	}
	if !reflect.DeepEqual(got.Runtime.Nodes(), want.Runtime.Nodes()) {
		t.Fatal("runtime nodes differ")
	}
	if !reflect.DeepEqual(got.Runtime.Edges(), want.Runtime.Edges()) {
		t.Fatal("runtime edges differ")
	}
}

func TestStampMatchesSerialStamper(t *testing.T) {
	for _, f := range stampFabrics(t) {
		d := uniformDecomposition(t, f)
		for _, k := range []int{0, 1} {
			want, err := serialStampClosSystem(f.g, d, f.endpoints, k)
			if err != nil {
				t.Fatalf("%s k=%d: serial: %v", f.name, k, err)
			}
			got, err := stampClosSystem(f.g, d, f.endpoints, k)
			if err != nil {
				t.Fatalf("%s k=%d: %v", f.name, k, err)
			}
			if len(want.ELP) == 0 {
				t.Fatalf("%s k=%d: empty ELP, comparison is vacuous", f.name, k)
			}
			requireSameSystem(t, got, want)
		}
	}
}

// TestStampWorkerIndependent pins that the fan-out is invisible: one core
// and four produce the same system. Runs under -race in `make determinism`.
func TestStampWorkerIndependent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, f := range stampFabrics(t) {
		d := uniformDecomposition(t, f)
		var sys [2]*core.System
		for i, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			var err error
			if sys[i], err = stampClosSystem(f.g, d, f.endpoints, 1); err != nil {
				t.Fatalf("%s GOMAXPROCS=%d: %v", f.name, procs, err)
			}
		}
		requireSameSystem(t, sys[1], sys[0])
	}
}

// TestStampRejectsUncoveredNodeBeforeAllocating drives the hoisted
// coverage check: a node map with a hole under one representative node
// must fail with the stamper's error before any arena exists.
func TestStampRejectsUncoveredNodeBeforeAllocating(t *testing.T) {
	f := stampFabrics(t)[1]
	d := uniformDecomposition(t, f)
	rep, _ := enumerateRep(f.g, d, f.endpoints, 1)
	pairs := podPairs(d, rep)
	if _, err := stampELP(rep, pairs); err != nil {
		t.Fatalf("intact node maps: %v", err)
	}

	// Punch the hole in the last pair's map, under the last node of the
	// last representative path: the old per-node check would have stamped
	// every other pair before meeting it.
	victim := rep.nodes[len(rep.nodes)-1]
	last := &pairs[len(pairs)-1]
	last.nm = append([]topology.NodeID(nil), last.nm...)
	last.nm[victim] = topology.InvalidNode

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stamped, err := stampELP(rep, pairs)
	runtime.ReadMemStats(&after)
	want := fmt.Sprintf("synthcache: path node %d not covered by pod translation", victim)
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if stamped != nil {
		t.Fatal("paths returned beside the error")
	}
	smallestArena := uint64(len(rep.nodes)-rep.e00) * 4
	if got := after.TotalAlloc - before.TotalAlloc; got >= smallestArena {
		t.Fatalf("allocated %d bytes before failing; one arena is %d", got, smallestArena)
	}
}

// TestHostEndpointsTakeFullEnumeration: hosts belong to no pod, so a host
// roster is not pod-uniform and must be served by the fallback.
func TestHostEndpointsTakeFullEnumeration(t *testing.T) {
	ft, err := topology.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := fingerprint.Decompose(ft.Graph)
	if !ok || !d.Uniform {
		t.Fatal("FatTree(4) does not decompose uniform")
	}
	if endpointsPodUniform(d, ft.Hosts) {
		t.Fatal("host roster accepted as pod-uniform")
	}
	cache := New(4)
	res, err := cache.ClosKBounce(ft.Graph, ft.Hosts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.PodMemoized {
		t.Fatal("host roster took the pod-stamped path")
	}
	if s := cache.Stats(); s.PodStamped != 0 {
		t.Fatalf("pod_stamped = %d, want 0", s.PodStamped)
	}
	for _, p := range res.Sys.ELP {
		if ft.Graph.Node(p[0]).Kind != topology.KindHost {
			t.Fatalf("path %s does not start at a host", p.String(ft.Graph))
		}
	}
}
