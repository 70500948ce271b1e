package synthcache_test

import (
	"sort"
	"sync"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/elp"
	"repro/internal/routing"
	"repro/internal/synthcache"
	"repro/internal/topology"
)

func smallClos(t *testing.T) *topology.Clos {
	t.Helper()
	c, err := topology.NewClos(topology.ClosConfig{
		Pods: 4, ToRsPerPod: 2, LeafsPerPod: 2, Spines: 4, HostsPerToR: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func smallJellyfish(t *testing.T) *topology.Jellyfish {
	t.Helper()
	j, err := topology.NewJellyfish(topology.JellyfishConfig{Switches: 12, Ports: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func pathKeys(paths []routing.Path) []string {
	keys := make([]string, len(paths))
	for i, p := range paths {
		keys[i] = p.Key()
	}
	sort.Strings(keys)
	return keys
}

// requireIdentical asserts two systems agree rule-for-rule, on the
// runtime tagged graph, and on the ELP as a set.
func requireIdentical(t *testing.T, got, want *core.System) {
	t.Helper()
	if diffs := check.DiffRulesets(got.Rules, want.Rules); len(diffs) != 0 {
		t.Fatalf("rulesets differ: %d diffs, first %+v", len(diffs), diffs[0])
	}
	gn, wn := got.Runtime.Nodes(), want.Runtime.Nodes()
	if len(gn) != len(wn) {
		t.Fatalf("runtime nodes: %d vs %d", len(gn), len(wn))
	}
	for i := range gn {
		if gn[i] != wn[i] {
			t.Fatalf("runtime node %d: %+v vs %+v", i, gn[i], wn[i])
		}
	}
	ge, we := got.Runtime.Edges(), want.Runtime.Edges()
	if len(ge) != len(we) {
		t.Fatalf("runtime edges: %d vs %d", len(ge), len(we))
	}
	for i := range ge {
		if ge[i] != we[i] {
			t.Fatalf("runtime edge %d: %+v vs %+v", i, ge[i], we[i])
		}
	}
	gk, wk := pathKeys(got.ELP), pathKeys(want.ELP)
	if len(gk) != len(wk) {
		t.Fatalf("ELP size: %d vs %d paths", len(gk), len(wk))
	}
	for i := range gk {
		if gk[i] != wk[i] {
			t.Fatalf("ELP differs at sorted index %d: %s vs %s", i, gk[i], wk[i])
		}
	}
}

func TestWarmHitSharesSystem(t *testing.T) {
	c := smallClos(t)
	cache := synthcache.New(8)
	set := elp.KBounce(c.Graph, c.ToRs, 1, nil)

	cold, err := cache.SynthesizeClos(c.Graph, set.Paths(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Hit {
		t.Fatal("first request hit")
	}
	warm, err := cache.SynthesizeClos(c.Graph, set.Paths(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Hit {
		t.Fatal("second request missed, want shared hit")
	}
	if warm.Sys != cold.Sys {
		t.Fatal("shared hit did not return the cached System")
	}
	if s := cache.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", s)
	}
}

func TestWarmHitSurvivesLinkFlap(t *testing.T) {
	// Link health is not wiring: a flap must not invalidate the canon
	// memo or change the synthesis key (the path set is the same object).
	c := smallClos(t)
	cache := synthcache.New(8)
	set := elp.KBounce(c.Graph, c.ToRs, 1, nil)
	if _, err := cache.SynthesizeClos(c.Graph, set.Paths(), 1); err != nil {
		t.Fatal(err)
	}
	c.Graph.FailLink(c.ToRs[0], c.Leaves[0])
	c.Graph.RestoreLink(c.ToRs[0], c.Leaves[0])
	warm, err := cache.SynthesizeClos(c.Graph, set.Paths(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Hit {
		t.Fatal("link flap evicted a wiring-keyed entry")
	}
}

// TestTwinInstanceRebuildsUncached: a System is bound to its graph, so an
// identical request from another instance is built for that instance,
// and from then on each instance hits its own entry.
func TestTwinInstanceRebuildsUncached(t *testing.T) {
	a := smallClos(t)
	b := smallClos(t) // separate instance, identical construction
	cache := synthcache.New(8)

	setA := elp.KBounce(a.Graph, a.ToRs, 1, nil)
	if _, err := cache.SynthesizeClos(a.Graph, setA.Paths(), 1); err != nil {
		t.Fatal(err)
	}
	setB := elp.KBounce(b.Graph, b.ToRs, 1, nil)
	res, err := cache.SynthesizeClos(b.Graph, setB.Paths(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit {
		t.Fatal("another instance's request was served the producer's System")
	}
	if res.Sys.Graph != b.Graph {
		t.Fatal("rebuilt system not bound to the caller's graph")
	}
	want, err := core.ClosSynthesize(b.Graph, setB.Paths(), 1)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, res.Sys, want)
	if again, err := cache.SynthesizeClos(b.Graph, setB.Paths(), 1); err != nil || !again.Hit || again.Sys != res.Sys {
		t.Fatalf("twin's re-request = %+v, %v; want a hit on the twin's own System", again, err)
	}
	if again, err := cache.SynthesizeClos(a.Graph, setA.Paths(), 1); err != nil || !again.Hit {
		t.Fatalf("producer's rehit after the twin's rebuild = %+v, %v", again, err)
	}
}

func TestGenericSynthesizeWarm(t *testing.T) {
	j := smallJellyfish(t)
	cache := synthcache.New(8)
	set := elp.ShortestAllN(j.Graph, j.Switches, 1)

	cold, err := cache.Synthesize(j.Graph, set.Paths(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := cache.Synthesize(j.Graph, set.Paths(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Hit || warm.Sys != cold.Sys {
		t.Fatal("generic warm request missed")
	}
	// A different option set is a different key.
	other, err := cache.Synthesize(j.Graph, set.Paths(), core.Options{SkipMerge: true})
	if err != nil {
		t.Fatal(err)
	}
	if other.Hit {
		t.Fatal("SkipMerge request hit the merged entry")
	}
}

func TestSingleFlightBuildsOnce(t *testing.T) {
	c := smallClos(t)
	cache := synthcache.New(8)
	set := elp.KBounce(c.Graph, c.ToRs, 1, nil)

	const n = 8
	results := make([]synthcache.Result, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			r, err := cache.SynthesizeClos(c.Graph, set.Paths(), 1)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	close(start)
	wg.Wait()

	s := cache.Stats()
	if s.Misses != 1 {
		t.Fatalf("misses = %d, want exactly one build", s.Misses)
	}
	if s.Hits != n-1 {
		t.Fatalf("hits = %d, want %d", s.Hits, n-1)
	}
	for i := 1; i < n; i++ {
		if results[i].Sys != results[0].Sys {
			t.Fatal("concurrent requests got distinct systems")
		}
	}
}

func TestLRUEviction(t *testing.T) {
	c := smallClos(t)
	cache := synthcache.New(1)
	set1 := elp.KBounce(c.Graph, c.ToRs, 1, nil)
	set2 := elp.KBounce(c.Graph, c.ToRs, 2, nil)

	if _, err := cache.SynthesizeClos(c.Graph, set1.Paths(), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.SynthesizeClos(c.Graph, set2.Paths(), 2); err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
	if cache.Len() != 1 {
		t.Fatalf("len = %d, want 1", cache.Len())
	}
	// The evicted key rebuilds cleanly.
	r, err := cache.SynthesizeClos(c.Graph, set1.Paths(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Hit {
		t.Fatal("evicted entry served a hit")
	}
}

func TestEvictionUnderConcurrency(t *testing.T) {
	// Capacity 1 with three hot keys: every response must still be a
	// complete, verified system — eviction must never expose a
	// partially-built System to an in-flight waiter.
	c := smallClos(t)
	cache := synthcache.New(1)
	sets := []*elp.Set{
		elp.KBounce(c.Graph, c.ToRs, 0, nil),
		elp.KBounce(c.Graph, c.ToRs, 1, nil),
		elp.KBounce(c.Graph, c.ToRs, 2, nil),
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				k := (w + i) % 3
				r, err := cache.SynthesizeClos(c.Graph, sets[k].Paths(), k)
				if err != nil {
					t.Error(err)
					return
				}
				if r.Sys == nil {
					t.Error("incomplete result")
					return
				}
				if err := r.Sys.Runtime.Verify(); err != nil {
					t.Errorf("cached runtime failed verification: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if cache.Len() != 1 {
		t.Fatalf("len = %d, want capacity bound 1", cache.Len())
	}
}

func TestErroredBuildNotCached(t *testing.T) {
	c := smallClos(t)
	cache := synthcache.New(8)
	// A 2-bounce ELP against a 1-bounce budget cannot be kept lossless.
	set := elp.KBounce(c.Graph, c.ToRs, 2, nil)
	if _, err := cache.SynthesizeClos(c.Graph, set.Paths(), 1); err == nil {
		t.Fatal("expected a synthesis error")
	}
	if cache.Len() != 0 {
		t.Fatalf("failed build left %d entries resident", cache.Len())
	}
	if _, err := cache.SynthesizeClos(c.Graph, set.Paths(), 1); err == nil {
		t.Fatal("retry unexpectedly succeeded")
	}
	if s := cache.Stats(); s.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (errors are not cached)", s.Misses)
	}
}

func TestPodStampedMatchesFromScratchFatTree(t *testing.T) {
	ft, err := topology.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	cache := synthcache.New(8)
	res, err := cache.ClosKBounce(ft.Graph, ft.Edges, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PodMemoized {
		t.Fatal("FatTree(4) did not take the pod-stamped path")
	}
	set := elp.KBounce(ft.Graph, ft.Edges, 1, nil)
	want, err := core.ClosSynthesize(ft.Graph, set.Paths(), 1)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, res.Sys, want)
	if res.Sys.NumLosslessQueues() != want.NumLosslessQueues() {
		t.Fatalf("queues: %d vs %d", res.Sys.NumLosslessQueues(), want.NumLosslessQueues())
	}
	wantImage := len(pathKeys(want.ELP))
	if got := len(res.Sys.ELP); got != wantImage {
		t.Fatalf("ELP count: %d vs %d", got, wantImage)
	}
}

func TestPodStampedMatchesFromScratchClos(t *testing.T) {
	c := smallClos(t)
	cache := synthcache.New(8)
	for _, k := range []int{0, 1, 2} {
		res, err := cache.ClosKBounce(c.Graph, c.ToRs, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !res.PodMemoized {
			t.Fatalf("k=%d: 4-pod Clos did not take the pod-stamped path", k)
		}
		set := elp.KBounce(c.Graph, c.ToRs, k, nil)
		want, err := core.ClosSynthesize(c.Graph, set.Paths(), k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		requireIdentical(t, res.Sys, want)
	}
}

func TestPodStampingFallsBackOnFailedLink(t *testing.T) {
	// An intra-pod failure breaks pod uniformity; the build must fall
	// back to full enumeration and stay correct. Health IS part of the
	// ClosKBounce key, so the healthy entry must not be reused either.
	ft, err := topology.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	cache := synthcache.New(8)
	healthy, err := cache.ClosKBounce(ft.Graph, ft.Edges, 1)
	if err != nil {
		t.Fatal(err)
	}
	ft.Graph.FailLink(ft.Edges[0], ft.Aggs[0])

	res, err := cache.ClosKBounce(ft.Graph, ft.Edges, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit {
		t.Fatal("failed-link request hit the healthy entry")
	}
	if res.PodMemoized {
		t.Fatal("non-uniform fabric took the pod-stamped path")
	}
	set := elp.KBounce(ft.Graph, ft.Edges, 1, nil)
	want, err := core.ClosSynthesize(ft.Graph, set.Paths(), 1)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, res.Sys, want)
	if len(res.Sys.ELP) >= len(healthy.Sys.ELP) {
		t.Fatal("failure did not shrink the ELP — key separation suspect")
	}

	ft.Graph.RestoreLink(ft.Edges[0], ft.Aggs[0])
	again, err := cache.ClosKBounce(ft.Graph, ft.Edges, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Hit || again.Sys != healthy.Sys {
		t.Fatal("restored fabric did not rehit the healthy entry")
	}
}

// TestHealthSumFlapOrderIndependent: the ClosKBounce key covers which
// links are down, not the order they failed in — and a different failed
// set is a different key whose build matches from-scratch synthesis.
func TestHealthSumFlapOrderIndependent(t *testing.T) {
	ft, err := topology.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	g := ft.Graph
	cache := synthcache.New(8)
	e0, a0 := ft.Edges[0], ft.Aggs[0]
	e1, a1 := ft.Edges[1], ft.Aggs[1]
	g.FailLink(e0, a0)
	g.FailLink(e1, a1)
	if n := len(g.FailedLinks()); n != 2 {
		t.Fatalf("%d links failed, want 2", n)
	}
	first, err := cache.ClosKBounce(g, ft.Edges, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.RestoreLink(e0, a0)
	g.RestoreLink(e1, a1)
	g.FailLink(e1, a1)
	g.FailLink(e0, a0)
	again, err := cache.ClosKBounce(g, ft.Edges, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Hit || again.Sys != first.Sys {
		t.Fatal("the same failed set, failed in the other order, missed")
	}

	g.RestoreLink(e0, a0)
	if !g.FailLink(e0, a1) {
		t.Fatal("fixture edge and aggregation switch are not adjacent")
	}
	other, err := cache.ClosKBounce(g, ft.Edges, 1)
	if err != nil {
		t.Fatal(err)
	}
	if other.Hit {
		t.Fatal("a different failed set hit")
	}
	want, err := core.ClosSynthesize(g, elp.KBounce(g, ft.Edges, 1, nil).Paths(), 1)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, other.Sys, want)
}
