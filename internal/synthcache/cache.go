// Package synthcache memoizes rule synthesis per graph instance.
//
// The cache exploits the paper's §6 observation that Tagger's rules are a
// pure function of (topology, ELP, synthesis options). A System is bound
// to the graph it was built on, so an entry can only serve that graph:
// the key is the graph instance and its wiring generation (Gen), the
// request kind and its parameter, and a SHA-256 over raw node IDs of the
// rest of the request — the path list for Synthesize and SynthesizeClos,
// the endpoint roster and failed-link set for ClosKBounce. Two tiers of
// reuse:
//
//   - shared hit: a repeated request on the same graph instance (a
//     long-lived controller resynthesizing, a sweep rerunning seeds over
//     one topology). The cached System is returned directly — synthesis
//     cost drops to hashing, or to a map lookup when the path list is the
//     same slice as before.
//   - pod memoization (ClosKBounce): for uniform multi-pod fabrics the
//     KBounce ELP is enumerated for a representative pod pair only and
//     stamped onto the remaining pods by pod-permutation automorphisms.
//
// There is no invalidation protocol: rewiring bumps Gen, so stale entries
// become unreachable and age out of the LRU.
//
// Concurrency: the cache is safe for concurrent use and single-flight —
// concurrent misses on one key synthesize exactly once, the rest wait.
// Eviction only unlinks an entry from the index; in-flight waiters keep
// their pointer, so a partially-built System is never observable.
// Cached Systems are shared read-only; nothing in them is built lazily,
// so shared readers never race.
package synthcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"repro/internal/core"
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

// Request kinds, the scheme part of a key.
const (
	schemeGeneric = iota // Synthesize; param is Options.SkipMerge
	schemeClos           // SynthesizeClos; param is maxBounces
	schemeClosKB         // ClosKBounce; param is maxBounces
)

// key identifies one entry: the graph instance and wiring generation it
// serves, the request kind and its parameter, and a digest of the rest of
// the request over raw node (and link) IDs. Raw IDs are only meaningful
// within one instance, which is the only instance a System can serve.
type key struct {
	g      *topology.Graph
	gen    uint64
	scheme int
	param  int
	sum    [sha256.Size]byte
}

// entry is one cache slot. The builder goroutine fills every field below
// ready and then closes it; waiters read them only after <-ready. An
// evicted entry stays valid for the waiters that already hold it.
type entry struct {
	key   key
	ready chan struct{}

	err error
	sys *core.System
	pod bool
}

// pathsAt identifies a path list by slice identity. Holding the element
// pointer in the memo keeps the backing array alive, so an address can
// never be reused by a different list while its entry exists; the
// remaining assumption — path lists are never mutated in place — is the
// same immutability contract elp.Set already provides.
type pathsAt struct {
	head *routing.Path
	n    int
}

// Cache is a concurrency-safe, single-flight, LRU-bounded synthesis
// cache. The zero value is not usable; construct with New.
type Cache struct {
	mu       sync.Mutex
	capacity int
	entries  map[key]*list.Element
	lru      *list.List // of *entry; front = most recently used
	pathSums map[pathsAt][sha256.Size]byte

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
		entries:  make(map[key]*list.Element),
		lru:      list.New(),
		pathSums: make(map[pathsAt][sha256.Size]byte),
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

// pathsSumOf digests a path sequence, memoized by slice identity: a
// warm hit on a long-lived path list (a sweep rerunning one topology, a
// controller resynthesizing the same ELP) costs a map lookup instead of
// re-hashing tens of thousands of paths. The SEQUENCE is hashed, not the
// set: a reordered input is a different key, never a wrong hit.
func (c *Cache) pathsSumOf(paths []routing.Path) [sha256.Size]byte {
	if len(paths) == 0 {
		return pathsSum(paths)
	}
	k := pathsAt{head: &paths[0], n: len(paths)}
	c.mu.Lock()
	if sum, ok := c.pathSums[k]; ok {
		c.mu.Unlock()
		return sum
	}
	c.mu.Unlock()
	sum := pathsSum(paths)
	c.mu.Lock()
	if len(c.pathSums) > 4*c.capacity+16 {
		c.pathSums = make(map[pathsAt][sha256.Size]byte)
	}
	c.pathSums[k] = sum
	c.mu.Unlock()
	return sum
}

func pathsSum(paths []routing.Path) [sha256.Size]byte {
	size := 8
	for _, p := range paths {
		size += 2 + len(p)*3
	}
	buf := make([]byte, 0, size)
	buf = binary.AppendUvarint(buf, uint64(len(paths)))
	for _, p := range paths {
		buf = binary.AppendUvarint(buf, uint64(len(p)))
		for _, n := range p {
			buf = binary.AppendUvarint(buf, uint64(n))
		}
	}
	return sha256.Sum256(buf)
}

// acquire returns the entry for key, creating (and becoming the builder
// of) a fresh one on a miss. The LRU bound is enforced here; eviction
// removes entries from the index only, never invalidating pointers that
// in-flight waiters hold.
func (c *Cache) acquire(k key) (*entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*entry), false
	}
	e := &entry{key: k, ready: make(chan struct{})}
	c.entries[k] = c.lru.PushFront(e)
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
// request retries); later requests wait for it and share its System.
// build reports whether it pod-stamped.
func (c *Cache) serve(k key, build func() (*core.System, bool, error)) (Result, error) {
	e, builder := c.acquire(k)
	if !builder {
		c.wait(e)
		if e.err != nil {
			// Deterministic inputs fail deterministically; surface the same
			// error a fresh build would have produced.
			return Result{}, e.err
		}
		c.count(&c.hits, "hits")
		return Result{Sys: e.sys, Hit: true, PodMemoized: e.pod}, nil
	}
	c.count(&c.misses, "misses")
	sys, pod, err := build()
	e.sys, e.pod, e.err = sys, pod, err
	if err != nil {
		c.drop(e)
	}
	close(e.ready)
	if err != nil {
		return Result{}, err
	}
	return Result{Sys: sys, PodMemoized: pod}, nil
}

// Synthesize is a memoized core.Synthesize. The cache key covers the
// graph instance, the path sequence and the output-affecting options;
// opts.Workers is excluded (par=1 and par=N provably emit identical
// systems — see internal/check).
func (c *Cache) Synthesize(g *topology.Graph, paths []routing.Path, opts core.Options) (Result, error) {
	skip := 0
	if opts.SkipMerge {
		skip = 1
	}
	k := key{g: g, gen: g.Gen(), scheme: schemeGeneric, param: skip, sum: c.pathsSumOf(paths)}
	return c.serve(k, func() (*core.System, bool, error) {
		sys, err := core.Synthesize(g, paths, opts)
		return sys, false, err
	})
}

// SynthesizeClos is a memoized core.ClosSynthesize for an explicit ELP
// path list.
func (c *Cache) SynthesizeClos(g *topology.Graph, paths []routing.Path, maxBounces int) (Result, error) {
	k := key{g: g, gen: g.Gen(), scheme: schemeClos, param: maxBounces, sum: c.pathsSumOf(paths)}
	return c.serve(k, func() (*core.System, bool, error) {
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
