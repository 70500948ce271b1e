package check

import (
	"sync"
	"testing"

	"repro/internal/synthcache"
)

// TestCacheSweepShared runs a small seeded cache-differential sweep over
// every family with ONE shared cache — the always-on smoke layer for
// cmd/taggerfuzz -cache / `make cache-fuzz`. Sequential here; the
// concurrent variant below and the -race run of `make cache-fuzz` cover
// contention.
func TestCacheSweepShared(t *testing.T) {
	seeds := int64(5)
	if testing.Short() {
		seeds = 2
	}
	cache := synthcache.New(32)
	for _, topo := range Cache.Topos() {
		for seed := int64(1); seed <= seeds; seed++ {
			c := Cache.Gen(topo, seed)
			if !c.validConfig() {
				t.Fatalf("Cache.Gen emitted an invalid config: %s", c)
			}
			if err := RunCacheCase(c, cache); err != nil {
				t.Errorf("cache differential failure (replay with: taggerfuzz -cache -topo %s -seed %d -seeds 1): %v",
					topo, seed, err)
			}
		}
	}
	st := cache.Stats()
	if st.Misses == 0 {
		t.Error("sweep never built anything")
	}
	if st.PodStamped == 0 {
		t.Error("sweep never exercised pod stamping (clos/fattree cases should)")
	}
}

// TestCacheSweepConcurrent drives every case of the sweep against the
// shared cache from its own goroutine; `go test -race` plus the
// per-case differential is the assertion. A small capacity forces
// eviction churn under contention.
func TestCacheSweepConcurrent(t *testing.T) {
	seeds := int64(3)
	if testing.Short() {
		seeds = 1
	}
	cache := synthcache.New(4)
	var wg sync.WaitGroup
	for _, topo := range Cache.Topos() {
		for seed := int64(1); seed <= seeds; seed++ {
			topo, seed := topo, seed
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := Cache.Gen(topo, seed)
				if err := RunCacheCase(c, cache); err != nil {
					t.Errorf("concurrent cache differential: %v", err)
				}
			}()
		}
	}
	wg.Wait()
}
