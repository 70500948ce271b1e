package controller

import (
	"testing"

	"repro/internal/check"
	"repro/internal/elp"
	"repro/internal/paper"
	"repro/internal/synthcache"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// TestControllerSharesSynthCache: two controllers over one fabric and
// one cache — the second's initial deploy is served from the first's
// synthesis, and both run rule-for-rule identical systems.
func TestControllerSharesSynthCache(t *testing.T) {
	c := paper.Testbed()
	cache := synthcache.New(8)
	ctl1, err := NewClos(c, 1, WithSynthCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses == 0 {
		t.Fatal("first controller did not synthesize through the cache")
	}
	ctl2, err := NewClos(c, 1, WithSynthCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Fatalf("second controller missed the warm cache: %+v", st)
	}
	if diffs := check.DiffRulesets(ctl1.System().Rules, ctl2.System().Rules); len(diffs) != 0 {
		t.Fatalf("cached controller diverged: %d rule diffs", len(diffs))
	}
	if err := check.VerifySystem(ctl2.System()); err != nil {
		t.Fatalf("cache-served system fails the oracle: %v", err)
	}
}

// TestChurnControllerFullRebuildHitsCache: the churn engine's
// full-rebuild fallback routes through the cache via the NewResynthFull
// hook, so a rebuild on previously-seen state is a hit. The ELP is
// random walks on a small Jellyfish, whose synthesis needs replay
// repairs; while the system has repairs, every drain and undrain falls
// back to a full rebuild. Two churn controllers share one cache: the
// first builds each state, and every rebuild of the second must be
// served from the cache. Then one controller alone on a fresh cache
// drains and undrains J3, J1 and J3 again: a rebuild keeps every path's
// slot, so a path set that recurs reaches the cache in the same order
// and hits — 3 misses (the initial build and the first drain of each
// switch) and 4 hits.
func TestChurnControllerFullRebuildHitsCache(t *testing.T) {
	j, err := topology.NewJellyfish(topology.JellyfishConfig{Switches: 8, Ports: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	policy := func(g *topology.Graph) *elp.Set {
		s := elp.NewSet()
		elp.AddRandomPaths(s, g, j.Switches, 100, 8, 1^0x5ee)
		return s
	}
	cache := synthcache.New(8)
	first, err := NewChurn(j.Graph, policy, WithSynthCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	second, err := NewChurn(j.Graph, policy, WithSynthCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("initial builds did not share the cache: %+v", st)
	}
	if len(first.System().Repairs) == 0 {
		t.Fatal("the fixture synthesizes without repairs: no event would rebuild")
	}

	rebuilds := telemetry.Default.Counter("resynth_full_rebuilds_total")
	for _, sw := range []string{"J3", "J1", "J5"} {
		for _, kind := range []EventKind{EventSwitchDrain, EventSwitchUndrain} {
			ev := Event{Kind: kind, A: j.Graph.MustLookup(sw)}
			if err := first.Handle(ev); err != nil {
				t.Fatal(err)
			}
			before, st := rebuilds.Value(), cache.Stats()
			if err := second.Handle(ev); err != nil {
				t.Fatal(err)
			}
			after := cache.Stats()
			if rebuilds.Value() != before+1 {
				t.Fatalf("%s %s: the second controller did not fall back to a full rebuild", kind, sw)
			}
			if after.Hits != st.Hits+1 || after.Misses != st.Misses {
				t.Fatalf("%s %s: the rebuild bypassed the cache: %+v -> %+v", kind, sw, st, after)
			}
			if second.System() != first.System() {
				t.Fatalf("%s %s: the rebuild was not served the first controller's system", kind, sw)
			}
		}
	}
	if err := check.VerifySystem(second.System()); err != nil {
		t.Fatalf("post-churn system fails the oracle: %v", err)
	}
	if second.System().Graph != j.Graph {
		t.Fatal("controller system bound to the wrong graph")
	}

	cache = synthcache.New(64)
	alone, err := NewChurn(j.Graph, policy, WithSynthCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	for _, sw := range []string{"J3", "J1", "J3"} {
		for _, kind := range []EventKind{EventSwitchDrain, EventSwitchUndrain} {
			if err := alone.Handle(Event{Kind: kind, A: j.Graph.MustLookup(sw)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := cache.Stats(); st.Misses != 3 || st.Hits != 4 {
		t.Fatalf("recurring drains: %d misses, %d hits; want 3 and 4", st.Misses, st.Hits)
	}
	if err := check.VerifySystem(alone.System()); err != nil {
		t.Fatalf("post-churn system fails the oracle: %v", err)
	}
}
