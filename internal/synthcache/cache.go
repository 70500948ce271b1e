// Package synthcache memoizes rule synthesis behind content-addressed
// fingerprints (internal/fingerprint).
//
// The cache exploits the paper's §6 observation that Tagger's rules are a
// pure function of (topology, ELP, synthesis options): two requests with
// equal fingerprints must produce identical rule sets, so the second can
// be served from the first's result. Two tiers of reuse:
//
//   - shared hit: the request comes from the same graph instance the
//     entry was built on (a long-lived controller resynthesizing, a sweep
//     rerunning seeds over one topology). The cached System is returned
//     directly — synthesis cost drops to hashing.
//   - pod memoization (ClosKBounce): for uniform multi-pod fabrics the
//     KBounce ELP is enumerated for a representative pod pair only and
//     stamped onto the remaining pods by pod-permutation automorphisms.
//
// A request with an equal fingerprint from a DIFFERENT graph instance (an
// isomorphic rebuild) is not a hit: a System is bound to its graph, so
// the request is rebuilt, uncached, and the entry stays with its producer.
//
// Concurrency: the cache is safe for concurrent use and single-flight —
// concurrent misses on one fingerprint synthesize exactly once, the rest
// wait. Eviction only unlinks an entry from the index; in-flight waiters
// keep their pointer, so a partially-built System is never observable.
// Cached Systems are shared read-only; nothing in them is built lazily,
// so shared readers never race.
package synthcache

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/fingerprint"
	"repro/internal/routing"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// Stats is a point-in-time view of the cache's effectiveness counters.
type Stats struct {
	Hits             int64 // served from cache
	Misses           int64 // built from scratch (pod-memoized builds included)
	Evictions        int64 // entries dropped by the LRU bound
	SingleFlightWait int64 // lookups that waited on a concurrent build
	PodStamped       int64 // builds that used pod-isomorphism stamping
}

// HitRatio returns hits / (hits + misses), 0 when idle.
func (s Stats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Result is a cache-served synthesis.
type Result struct {
	Sys *core.System
	// Hit reports the result came from the cache.
	Hit bool
	// PodMemoized reports the build used representative-pod stamping
	// (ClosKBounce only).
	PodMemoized bool
}

// entry is one cache slot. The builder goroutine fills every field below
// ready and then closes it; waiters read them only after <-ready. An
// evicted entry stays valid for the waiters that already hold it.
type entry struct {
	key   fingerprint.Fingerprint
	ready chan struct{}

	err error
	g   *topology.Graph
	sys *core.System
	pod bool
}

type canonAt struct {
	gen uint64
	c   *fingerprint.Canon
}

// pathsAt identifies a path list by slice identity under a specific
// canonical labeling. Holding the element pointer in the memo keeps the
// backing array alive, so an address can never be reused by a different
// list while its entry exists; the remaining assumption — path lists are
// never mutated in place — is the same immutability contract elp.Set
// already provides.
type pathsAt struct {
	canon *fingerprint.Canon
	head  *routing.Path
	n     int
}

// Cache is a concurrency-safe, single-flight, LRU-bounded synthesis
// cache. The zero value is not usable; construct with New.
type Cache struct {
	mu       sync.Mutex
	capacity int
	entries  map[fingerprint.Fingerprint]*list.Element
	lru      *list.List // of *entry; front = most recently used
	canons   map[*topology.Graph]canonAt
	pathSums map[pathsAt]fingerprint.Fingerprint

	tel *telemetry.Registry

	hits       atomic.Int64
	misses     atomic.Int64
	evictions  atomic.Int64
	sfWaits    atomic.Int64
	podStamped atomic.Int64
}

// DefaultCapacity bounds caches constructed with New(0).
const DefaultCapacity = 64

// New returns a cache holding at most capacity entries (0 or negative:
// DefaultCapacity). Metrics go to telemetry.Default unless SetTelemetry
// points them elsewhere.
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{
		capacity: capacity,
		entries:  make(map[fingerprint.Fingerprint]*list.Element),
		lru:      list.New(),
		canons:   make(map[*topology.Graph]canonAt),
		pathSums: make(map[pathsAt]fingerprint.Fingerprint),
		tel:      telemetry.Default,
	}
}

// SetTelemetry redirects the cache's counters to reg (tests, or a
// per-sweep registry). Call before first use.
func (c *Cache) SetTelemetry(reg *telemetry.Registry) {
	c.mu.Lock()
	c.tel = reg
	c.mu.Unlock()
}

func (c *Cache) registry() *telemetry.Registry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tel
}

func (c *Cache) count(counter *atomic.Int64, name string) {
	counter.Add(1)
	c.registry().Counter("synthcache." + name).Inc()
}

// Stats returns the current counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:             c.hits.Load(),
		Misses:           c.misses.Load(),
		Evictions:        c.evictions.Load(),
		SingleFlightWait: c.sfWaits.Load(),
		PodStamped:       c.podStamped.Load(),
	}
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// canonOf returns the canonical form of g, memoized per (graph, wiring
// generation) so repeated requests against a live graph pay hashing cost
// only once per topology change.
func (c *Cache) canonOf(g *topology.Graph) *fingerprint.Canon {
	gen := g.Gen()
	c.mu.Lock()
	if m, ok := c.canons[g]; ok && m.gen == gen {
		c.mu.Unlock()
		return m.c
	}
	c.mu.Unlock()
	cn := fingerprint.Canonicalize(g)
	c.mu.Lock()
	if len(c.canons) > 4*c.capacity+16 {
		c.canons = make(map[*topology.Graph]canonAt)
	}
	c.canons[g] = canonAt{gen: gen, c: cn}
	c.mu.Unlock()
	return cn
}

// pathsSumOf returns fingerprint.PathsSum memoized by slice identity:
// a warm hit on a long-lived path list (a sweep rerunning one topology,
// a controller resynthesizing the same ELP) costs a map lookup instead
// of re-hashing tens of thousands of paths.
func (c *Cache) pathsSumOf(canon *fingerprint.Canon, paths []routing.Path) fingerprint.Fingerprint {
	if len(paths) == 0 {
		return fingerprint.PathsSum(canon, paths)
	}
	k := pathsAt{canon: canon, head: &paths[0], n: len(paths)}
	c.mu.Lock()
	if sum, ok := c.pathSums[k]; ok {
		c.mu.Unlock()
		return sum
	}
	c.mu.Unlock()
	sum := fingerprint.PathsSum(canon, paths)
	c.mu.Lock()
	if len(c.pathSums) > 4*c.capacity+16 {
		c.pathSums = make(map[pathsAt]fingerprint.Fingerprint)
	}
	c.pathSums[k] = sum
	c.mu.Unlock()
	return sum
}

// acquire returns the entry for key, creating (and becoming the builder
// of) a fresh one on a miss. The LRU bound is enforced here; eviction
// removes entries from the index only, never invalidating pointers that
// in-flight waiters hold.
func (c *Cache) acquire(key fingerprint.Fingerprint) (*entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*entry), false
	}
	e := &entry{key: key, ready: make(chan struct{})}
	c.entries[key] = c.lru.PushFront(e)
	for len(c.entries) > c.capacity {
		back := c.lru.Back()
		be := back.Value.(*entry)
		c.lru.Remove(back)
		delete(c.entries, be.key)
		c.evictions.Add(1)
		c.tel.Counter("synthcache.evictions").Inc()
	}
	return e, true
}

// drop unlinks e (a failed or superseded build) from the index.
func (c *Cache) drop(e *entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[e.key]; ok && el.Value.(*entry) == e {
		c.lru.Remove(el)
		delete(c.entries, e.key)
	}
}

// wait blocks until e is fully built, counting the single-flight wait if
// the build was still in flight.
func (c *Cache) wait(e *entry) {
	select {
	case <-e.ready:
	default:
		c.count(&c.sfWaits, "singleflight_waits")
		<-e.ready
	}
}

// serve is the one lookup/build flow. The first request for a key
// builds and publishes the entry (an error unlinks it, so the next
// request retries); later requests wait for it and share its System
// when they come from the graph instance it was built on. A
// request from another instance with the same fingerprint rebuilds for
// itself, uncached. build reports whether it pod-stamped.
func (c *Cache) serve(g *topology.Graph, key fingerprint.Fingerprint,
	build func() (*core.System, bool, error)) (Result, error) {

	e, builder := c.acquire(key)
	if !builder {
		c.wait(e)
		if e.err != nil {
			// Deterministic inputs fail deterministically; surface the same
			// error a fresh build would have produced.
			return Result{}, e.err
		}
		if e.g == g {
			c.count(&c.hits, "hits")
			return Result{Sys: e.sys, Hit: true, PodMemoized: e.pod}, nil
		}
	}
	c.count(&c.misses, "misses")
	sys, pod, err := build()
	if builder {
		e.g, e.sys, e.pod, e.err = g, sys, pod, err
		if err != nil {
			c.drop(e)
		}
		close(e.ready)
	}
	if err != nil {
		return Result{}, err
	}
	return Result{Sys: sys, PodMemoized: pod}, nil
}

// Synthesize is a memoized core.Synthesize. The cache
// key covers the graph fingerprint, the path sequence and the
// output-affecting options; opts.Workers is excluded (par=1 and par=N
// provably emit identical systems — see internal/check).
func (c *Cache) Synthesize(g *topology.Graph, paths []routing.Path, opts core.Options) (Result, error) {
	canon := c.canonOf(g)
	skip := 0
	if opts.SkipMerge {
		skip = 1
	}
	key := fingerprint.Key("generic", []int{skip},
		canon.FP, c.pathsSumOf(canon, paths))
	return c.serve(g, key, func() (*core.System, bool, error) {
		sys, err := core.Synthesize(g, paths, opts)
		return sys, false, err
	})
}

// SynthesizeClos is a memoized core.ClosSynthesize for an explicit ELP
// path list.
func (c *Cache) SynthesizeClos(g *topology.Graph, paths []routing.Path, maxBounces int) (Result, error) {
	canon := c.canonOf(g)
	key := fingerprint.Key("clos", []int{maxBounces},
		canon.FP, c.pathsSumOf(canon, paths))
	return c.serve(g, key, func() (*core.System, bool, error) {
		sys, err := core.ClosSynthesize(g, paths, maxBounces)
		return sys, false, err
	})
}

// FullSynth adapts the cache to core.Resynth's full-synthesis hook
// (core.NewResynthFull): churn controllers route their initial build and
// every full-rebuild fallback through the cache.
func FullSynth(c *Cache) func(*topology.Graph, []routing.Path, core.Options) (*core.System, error) {
	return func(g *topology.Graph, paths []routing.Path, opts core.Options) (*core.System, error) {
		r, err := c.Synthesize(g, paths, opts)
		if err != nil {
			return nil, err
		}
		return r.Sys, nil
	}
}
