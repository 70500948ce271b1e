package check

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/elp"
	"repro/internal/routing"
	"repro/internal/synthcache"
	"repro/internal/topology"
)

// CacheCase is one cache-differential input: a topology family with its
// knobs. Each case is run against a SHARED synthcache: the first request
// is a cold build, the second (same graph instance) must be a shared
// hit, and a rebuilt twin instance must be servable by canonical-order
// translation — and every one of those results must be rule-for-rule
// identical to from-scratch synthesis plus pass the §5.1 oracle. Clos
// and fat-tree cases go through ClosKBounce, so uniform multi-pod
// fabrics also exercise the representative-pod stamping path.
type CacheCase struct {
	Topo string // "clos", "fattree" or "jellyfish"
	Seed int64

	// Clos knobs.
	Pods, ToRsPerPod, LeafsPerPod, Spines, HostsPerToR int
	MaxBounces                                         int

	// Fat-tree knob (even, >= 4).
	K int

	// Jellyfish knobs.
	Switches, Ports, NetPorts int

	// FailLinks randomly fails this many switch-to-switch links before
	// synthesis, so non-uniform fabrics (pod-stamping fallback) and
	// health-sensitive keys are covered too.
	FailLinks int
}

func (c CacheCase) String() string {
	switch c.Topo {
	case "clos":
		return fmt.Sprintf("cache-clos{pods=%d tors=%d leafs=%d spines=%d hosts=%d k=%d fail=%d seed=%d}",
			c.Pods, c.ToRsPerPod, c.LeafsPerPod, c.Spines, c.HostsPerToR, c.MaxBounces, c.FailLinks, c.Seed)
	case "fattree":
		return fmt.Sprintf("cache-fattree{k=%d bounces=%d fail=%d seed=%d}", c.K, c.MaxBounces, c.FailLinks, c.Seed)
	case "jellyfish":
		return fmt.Sprintf("cache-jellyfish{sw=%d ports=%d net=%d fail=%d seed=%d}",
			c.Switches, c.Ports, c.NetPorts, c.FailLinks, c.Seed)
	}
	return fmt.Sprintf("cache-case{topo=%q seed=%d}", c.Topo, c.Seed)
}

// CacheTopos lists the families the cache differential covers.
func CacheTopos() []string { return []string{"clos", "fattree", "jellyfish"} }

// GenCacheCase derives a bounded cache case from a seed.
func GenCacheCase(topo string, seed int64) CacheCase {
	rng := rand.New(rand.NewSource(seed))
	c := CacheCase{Topo: topo, Seed: seed}
	switch topo {
	case "clos":
		c.Pods = 2 + rng.Intn(3)
		c.ToRsPerPod = 1 + rng.Intn(2)
		c.LeafsPerPod = 1 + rng.Intn(2)
		c.Spines = 1 + rng.Intn(3)
		c.HostsPerToR = rng.Intn(2)
		c.MaxBounces = 1 + rng.Intn(2)
	case "fattree":
		c.K = 4 + 2*rng.Intn(2) // 4 or 6
		c.MaxBounces = 1
	case "jellyfish":
		c.Switches = 4 + rng.Intn(7)
		c.NetPorts = 2 + rng.Intn(2)
		if c.NetPorts >= c.Switches {
			c.NetPorts = c.Switches - 1
		}
		c.Ports = c.NetPorts + 1 + rng.Intn(3)
	}
	if rng.Intn(3) == 0 {
		c.FailLinks = 1 + rng.Intn(2)
	}
	return c
}

// buildCache materializes one instance of the case's topology. Called
// twice per run: the builders are deterministic, so the two instances
// are isomorphic twins with distinct graph pointers.
func (c CacheCase) buildCache() (*topology.Graph, []topology.NodeID, error) {
	switch c.Topo {
	case "clos":
		cl, err := topology.NewClos(topology.ClosConfig{
			Pods: c.Pods, ToRsPerPod: c.ToRsPerPod, LeafsPerPod: c.LeafsPerPod,
			Spines: c.Spines, HostsPerToR: c.HostsPerToR,
		})
		if err != nil {
			return nil, nil, err
		}
		return cl.Graph, cl.ToRs, nil
	case "fattree":
		ft, err := topology.NewFatTree(c.K)
		if err != nil {
			return nil, nil, err
		}
		return ft.Graph, ft.Edges, nil
	case "jellyfish":
		j, err := topology.NewJellyfish(topology.JellyfishConfig{
			Switches: c.Switches, Ports: c.Ports, NetPorts: c.NetPorts,
			Seed: c.Seed, Attempts: 64,
		})
		if err != nil {
			return nil, nil, err
		}
		return j.Graph, j.Switches, nil
	}
	return nil, nil, fmt.Errorf("check: unknown cache topology family %q", c.Topo)
}

// failSome fails c.FailLinks switch-to-switch links, chosen by the
// case's seed — identically on both twin instances.
func (c CacheCase) failSome(g *topology.Graph) {
	if c.FailLinks == 0 {
		return
	}
	links := g.SwitchLinks()
	if len(links) == 0 {
		return
	}
	rng := rand.New(rand.NewSource(c.Seed + 17))
	for i := 0; i < c.FailLinks; i++ {
		l := links[rng.Intn(len(links))]
		g.FailLink(g.MustLookup(l[0]), g.MustLookup(l[1]))
	}
}

// cacheSynth issues the family's cached request against the shared
// cache; reference runs the matching from-scratch synthesis.
func (c CacheCase) cacheSynth(cache *synthcache.Cache, g *topology.Graph, eps []topology.NodeID) (synthcache.Result, error) {
	if c.Topo == "jellyfish" {
		set := elp.ShortestAllN(g, eps, 1)
		return cache.Synthesize(g, set.Paths(), core.Options{})
	}
	return cache.ClosKBounce(g, eps, c.MaxBounces)
}

func (c CacheCase) reference(g *topology.Graph, eps []topology.NodeID) (*core.System, error) {
	if c.Topo == "jellyfish" {
		set := elp.ShortestAllN(g, eps, 1)
		return core.Synthesize(g, set.Paths(), core.Options{})
	}
	set := elp.KBounce(g, eps, c.MaxBounces, nil)
	return core.ClosSynthesize(g, set.Paths(), c.MaxBounces)
}

// cacheEquiv demands the cached result be indistinguishable from the
// from-scratch reference: identical rules and max tag, identical runtime
// tagged graph, the same ELP as a set (stamped path order may differ
// from enumeration order), and a clean pass of the independent oracle.
func cacheEquiv(got *core.System, ref *core.System) error {
	if diffs := DiffRulesets(ref.Rules, got.Rules); len(diffs) > 0 {
		return fmt.Errorf("cached vs from-scratch rules diverge (%d diffs; first: %s)", len(diffs), diffs[0])
	}
	if a, b := ref.Rules.MaxTag(), got.Rules.MaxTag(); a != b {
		return fmt.Errorf("cached vs from-scratch max tag: %d vs %d", b, a)
	}
	gn, rn := got.Runtime.Nodes(), ref.Runtime.Nodes()
	ge, re := got.Runtime.Edges(), ref.Runtime.Edges()
	if len(gn) != len(rn) || len(ge) != len(re) {
		return fmt.Errorf("runtime graph size: %d/%d nodes, %d/%d edges", len(gn), len(rn), len(ge), len(re))
	}
	for i := range gn {
		if gn[i] != rn[i] {
			return fmt.Errorf("runtime node %d diverges: %+v vs %+v", i, gn[i], rn[i])
		}
	}
	for i := range ge {
		if ge[i] != re[i] {
			return fmt.Errorf("runtime edge %d diverges: %+v vs %+v", i, ge[i], re[i])
		}
	}
	if err := samePathSet(got.ELP, ref.ELP); err != nil {
		return err
	}
	if err := VerifySystem(got); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	return nil
}

func samePathSet(a, b []routing.Path) error {
	key := func(ps []routing.Path) []string {
		out := make([]string, len(ps))
		for i, p := range ps {
			out[i] = p.Key()
		}
		sort.Strings(out)
		return out
	}
	ka, kb := key(a), key(b)
	if len(ka) != len(kb) {
		return fmt.Errorf("ELP size: %d vs %d paths", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return fmt.Errorf("ELP differs at sorted index %d: %s vs %s", i, ka[i], kb[i])
		}
	}
	return nil
}

// RunCacheCase drives one case through the shared cache:
//
//  1. cold: first request builds (possibly pod-stamped) — must match the
//     from-scratch reference on the same instance;
//  2. warm: second request on the same graph must be a shared hit
//     returning the identical System;
//  3. twin: the same request against a rebuilt instance (distinct
//     pointers, equal fingerprint) is rebuilt for that instance and
//     must match its own from-scratch reference.
//
// The cache is shared across every case of a sweep, so cross-case
// eviction and key-collision behavior is exercised for free.
func RunCacheCase(c CacheCase, cache *synthcache.Cache) error {
	g, eps, err := c.buildCache()
	if err != nil {
		return fmt.Errorf("check: building %s: %w", c, err)
	}
	c.failSome(g)

	ref, err := c.reference(g, eps)
	if err != nil {
		return fmt.Errorf("check: %s: reference synthesis: %w", c, err)
	}
	cold, err := c.cacheSynth(cache, g, eps)
	if err != nil {
		return fmt.Errorf("%s: cold cached synthesis: %w", c, err)
	}
	if cold.Sys.Graph != g {
		return fmt.Errorf("%s: cold System bound to the wrong graph", c)
	}
	if err := cacheEquiv(cold.Sys, ref); err != nil {
		return fmt.Errorf("%s: cold: %w", c, err)
	}

	warm, err := c.cacheSynth(cache, g, eps)
	if err != nil {
		return fmt.Errorf("%s: warm cached synthesis: %w", c, err)
	}
	// The cache is shared across a sweep's seeds, and distinct seeds can
	// generate identical fabrics: the resident entry for this key may be
	// bound to ANOTHER seed's graph instance, in which case the warm
	// request legitimately misses instead of hitting the shared tier.
	// Either way the result must be bound to our graph and match the
	// reference.
	if warm.Sys.Graph != g {
		return fmt.Errorf("%s: warm System bound to the wrong graph", c)
	}
	if warm.Hit && warm.Sys != cold.Sys && !cold.Hit {
		return fmt.Errorf("%s: shared hit returned a different System than the cold build", c)
	}
	if err := cacheEquiv(warm.Sys, ref); err != nil {
		return fmt.Errorf("%s: warm: %w", c, err)
	}

	g2, eps2, err := c.buildCache()
	if err != nil {
		return fmt.Errorf("check: rebuilding %s: %w", c, err)
	}
	c.failSome(g2)
	ref2, err := c.reference(g2, eps2)
	if err != nil {
		return fmt.Errorf("check: %s: twin reference synthesis: %w", c, err)
	}
	twin, err := c.cacheSynth(cache, g2, eps2)
	if err != nil {
		return fmt.Errorf("%s: twin cached synthesis: %w", c, err)
	}
	if twin.Sys == cold.Sys {
		return fmt.Errorf("%s: twin instance was handed the first instance's System", c)
	}
	if twin.Sys.Graph != g2 {
		return fmt.Errorf("%s: twin System bound to the wrong graph", c)
	}
	if err := cacheEquiv(twin.Sys, ref2); err != nil {
		return fmt.Errorf("%s: twin: %w", c, err)
	}
	return nil
}
