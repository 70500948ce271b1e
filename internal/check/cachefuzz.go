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
//     needs the graph instance that built it — so it is built for the
//     twin and must match the twin's own from-scratch reference;
//  4. twin re-request: a shared hit on the twin's own System.
//
// A sweep shares one cache across every case, so cross-case eviction is
// exercised for free: a re-request may miss only if the cache evicted
// something since the build it re-requests. A nil cache gives the case a
// fresh one (what the shrinker probes with).
func RunCacheCase(c Case, cache *synthcache.Cache) error {
	if cache == nil {
		cache = synthcache.New(4)
	}
	f, err := c.build()
	if err != nil {
		return fmt.Errorf("check: building %s: %w", c, err)
	}
	c.failSome(f)
	cold, err := cacheBuildAndRehit(c, cache, f, "cold")
	if err != nil {
		return err
	}

	f2, err := c.build()
	if err != nil {
		return fmt.Errorf("check: rebuilding %s: %w", c, err)
	}
	c.failSome(f2)
	twin, err := cacheBuildAndRehit(c, cache, f2, "twin")
	if err != nil {
		return err
	}
	if twin == cold {
		return fmt.Errorf("%s: twin instance was handed the first instance's System", c)
	}
	return nil
}

// cacheBuildAndRehit issues c's cached request on f twice. The first
// answer must be a build bound to f's graph and equal from-scratch
// synthesis; the second must hit it unless the cache evicted in between.
// It returns the first answer's System.
func cacheBuildAndRehit(c Case, cache *synthcache.Cache, f *fabric, arm string) (*core.System, error) {
	ref, err := c.reference(f)
	if err != nil {
		return nil, fmt.Errorf("check: %s: %s reference synthesis: %w", c, arm, err)
	}
	evictions := cache.Stats().Evictions
	first, err := c.cacheSynth(cache, f)
	if err != nil {
		return nil, fmt.Errorf("%s: %s cached synthesis: %w", c, arm, err)
	}
	if first.Hit {
		return nil, fmt.Errorf("%s: %s request on a fresh instance hit", c, arm)
	}
	if first.Sys.Graph != f.g {
		return nil, fmt.Errorf("%s: %s System bound to the wrong graph", c, arm)
	}
	if err := sameSystem(first.Sys, ref); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", c, arm, err)
	}

	again, err := c.cacheSynth(cache, f)
	if err != nil {
		return nil, fmt.Errorf("%s: %s re-request: %w", c, arm, err)
	}
	switch {
	case again.Hit:
		if again.Sys != first.Sys {
			return nil, fmt.Errorf("%s: %s re-request hit a different System than its build", c, arm)
		}
	case cache.Stats().Evictions == evictions:
		return nil, fmt.Errorf("%s: %s re-request missed with nothing evicted", c, arm)
	case again.Sys.Graph != f.g:
		return nil, fmt.Errorf("%s: %s re-request System bound to the wrong graph", c, arm)
	default:
		if err := sameSystem(again.Sys, ref); err != nil {
			return nil, fmt.Errorf("%s: %s re-request: %w", c, arm, err)
		}
	}
	return first.Sys, nil
}
