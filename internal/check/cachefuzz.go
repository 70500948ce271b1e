package check

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/synthcache"
)

// failSome fails c.FailLinks switch-to-switch links, chosen by the
// case's seed — identically on both twin instances.
func (c Case) failSome(f *fabric) {
	if c.FailLinks == 0 {
		return
	}
	links := f.g.SwitchLinks()
	if len(links) == 0 {
		return
	}
	rng := rand.New(rand.NewSource(c.Seed + 17))
	for i := 0; i < c.FailLinks; i++ {
		l := links[rng.Intn(len(links))]
		f.g.FailLink(f.g.MustLookup(l[0]), f.g.MustLookup(l[1]))
	}
}

// cacheSynth issues the family's cached request: Clos and fat-tree go
// through ClosKBounce, so uniform multi-pod fabrics exercise the
// representative-pod stamping path; Jellyfish through Synthesize.
func (c Case) cacheSynth(cache *synthcache.Cache, f *fabric) (synthcache.Result, error) {
	if c.Topo == "jellyfish" {
		return cache.Synthesize(f.g, c.elp(f).Paths(), core.Options{})
	}
	return cache.ClosKBounce(f.g, f.endpoints, c.MaxBounces)
}

// reference runs the from-scratch synthesis cacheSynth must equal.
func (c Case) reference(f *fabric) (*core.System, error) {
	if c.Topo == "jellyfish" {
		return core.Synthesize(f.g, c.elp(f).Paths(), core.Options{})
	}
	return core.ClosSynthesize(f.g, c.elp(f).Paths(), c.MaxBounces)
}

// RunCacheCase drives one case through a synthesis cache:
//
//  1. cold: the first request builds (possibly pod-stamped) and must
//     match the from-scratch reference on the same instance;
//  2. warm: the second request on the same graph instance must be a
//     shared hit returning the identical System;
//  3. twin: the same request against a rebuilt instance (distinct
//     pointers) must not be served the first instance's entry — a hit
//     needs the graph instance that built it — so it is rebuilt for the
//     twin and must match the twin's own from-scratch reference.
//
// A sweep shares one cache across every case, so cross-case eviction and
// key-collision behavior is exercised for free; a nil cache gives the
// case a fresh one (what the shrinker probes with).
func RunCacheCase(c Case, cache *synthcache.Cache) error {
	if cache == nil {
		cache = synthcache.New(4)
	}
	f, err := c.build()
	if err != nil {
		return fmt.Errorf("check: building %s: %w", c, err)
	}
	c.failSome(f)

	ref, err := c.reference(f)
	if err != nil {
		return fmt.Errorf("check: %s: reference synthesis: %w", c, err)
	}
	cold, err := c.cacheSynth(cache, f)
	if err != nil {
		return fmt.Errorf("%s: cold cached synthesis: %w", c, err)
	}
	if cold.Sys.Graph != f.g {
		return fmt.Errorf("%s: cold System bound to the wrong graph", c)
	}
	if err := sameSystem(cold.Sys, ref); err != nil {
		return fmt.Errorf("%s: cold: %w", c, err)
	}

	warm, err := c.cacheSynth(cache, f)
	if err != nil {
		return fmt.Errorf("%s: warm cached synthesis: %w", c, err)
	}
	// The cache is shared across a sweep's seeds, and distinct seeds can
	// generate identical fabrics: the resident entry for this key may be
	// bound to ANOTHER seed's graph instance, in which case the warm
	// request legitimately misses instead of hitting the shared tier.
	// Either way the result must be bound to our graph and match the
	// reference.
	if warm.Sys.Graph != f.g {
		return fmt.Errorf("%s: warm System bound to the wrong graph", c)
	}
	if warm.Hit && warm.Sys != cold.Sys && !cold.Hit {
		return fmt.Errorf("%s: shared hit returned a different System than the cold build", c)
	}
	if err := sameSystem(warm.Sys, ref); err != nil {
		return fmt.Errorf("%s: warm: %w", c, err)
	}

	f2, err := c.build()
	if err != nil {
		return fmt.Errorf("check: rebuilding %s: %w", c, err)
	}
	c.failSome(f2)
	ref2, err := c.reference(f2)
	if err != nil {
		return fmt.Errorf("check: %s: twin reference synthesis: %w", c, err)
	}
	twin, err := c.cacheSynth(cache, f2)
	if err != nil {
		return fmt.Errorf("%s: twin cached synthesis: %w", c, err)
	}
	if twin.Sys == cold.Sys {
		return fmt.Errorf("%s: twin instance was handed the first instance's System", c)
	}
	if twin.Sys.Graph != f2.g {
		return fmt.Errorf("%s: twin System bound to the wrong graph", c)
	}
	if err := sameSystem(twin.Sys, ref2); err != nil {
		return fmt.Errorf("%s: twin: %w", c, err)
	}
	return nil
}
