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
//     slice the entry was built from.
//   - pod memoization (ClosKBounce): for uniform multi-pod fabrics the
//     KBounce ELP is enumerated for a representative pod pair only and
//     stamped onto the remaining pods by pod-permutation automorphisms.
//
// There is no invalidation protocol: rewiring bumps Gen, so stale entries
// become unreachable and age out of the LRU.
//
// Concurrency: the cache is safe for concurrent use and single-flight —
// concurrent misses on one key synthesize exactly once, the rest wait.
// A build in flight waits in its own map and joins the LRU index only
// once it succeeds, so a failed build evicts nothing. Eviction only
// unlinks an entry from the index; waiters keep their pointer, so a
// partially-built System is never observable.
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
	key key
	// memo is the path list the entry was built from, whose digest the
	// cache memoizes while the entry is resident (zero: none). Guarded
	// by Cache.mu.
	memo  pathsAt
	ready chan struct{}

	err error
	sys *core.System
	pod bool
}

// pathsAt identifies a path list by slice identity. Holding the element
// pointer in the memo keeps the backing array alive, so an address can
// never be reused by a different list while its entry exists; the
// remaining assumption — path lists are never mutated in place — is the
// same immutability contract elp.Set already provides. The memo holds
// only the lists resident entries were built from, which their Systems
// keep alive anyway, so it retains nothing the cache does not.
type pathsAt struct {
	head *routing.Path
	n    int
}

// Cache is a concurrency-safe, single-flight, LRU-bounded synthesis
// cache. The zero value is not usable; construct with New.
type Cache struct {
	mu       sync.Mutex
	capacity int
	entries  map[key]*list.Element         // built entries, at most capacity
	lru      *list.List                    // of *entry; front = most recently used
	building map[key]*entry                // builds in flight, for waiters
	pathSums map[pathsAt][sha256.Size]byte // by entry.memo

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
// DefaultCapacity). Metrics go to telemetry.Default.
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{
		capacity: capacity,
		entries:  make(map[key]*list.Element),
		lru:      list.New(),
		building: make(map[key]*entry),
		pathSums: make(map[pathsAt][sha256.Size]byte),
		tel:      telemetry.Default,
	}
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

// pathsSumOf digests a path sequence, memoized by slice identity: a
// repeated request with the list a resident entry was built from (a sweep
// rerunning one topology, a controller resynthesizing the same ELP) costs
// a map lookup instead of re-hashing tens of thousands of paths. Any other
// list is hashed afresh and not kept: a warm start's newly enumerated ELP
// is never asked for again. It also returns the list's identity, which
// serve memoizes if the list builds an entry. The SEQUENCE is hashed, not
// the set: a reordered input is a different key, never a wrong hit.
func (c *Cache) pathsSumOf(paths []routing.Path) ([sha256.Size]byte, pathsAt) {
	if len(paths) == 0 {
		return pathsSum(paths), pathsAt{}
	}
	at := pathsAt{head: &paths[0], n: len(paths)}
	c.mu.Lock()
	sum, ok := c.pathSums[at]
	c.mu.Unlock()
	if !ok {
		sum = pathsSum(paths)
	}
	return sum, at
}

// pathsSum is SHA-256 over the uvarint encoding of the path count, then
// of each path's length and node IDs. The encoding is streamed into the
// hash through a fixed buffer rather than laid out whole first.
func pathsSum(paths []routing.Path) [sha256.Size]byte {
	h := sha256.New()
	var buf [4096]byte
	b := binary.AppendUvarint(buf[:0], uint64(len(paths)))
	for _, p := range paths {
		if len(b) > len(buf)-binary.MaxVarintLen64 {
			h.Write(b)
			b = b[:0]
		}
		b = binary.AppendUvarint(b, uint64(len(p)))
		for _, n := range p {
			if len(b) > len(buf)-binary.MaxVarintLen64 {
				h.Write(b)
				b = b[:0]
			}
			b = binary.AppendUvarint(b, uint64(n))
		}
	}
	h.Write(b)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// acquire returns the entry for key, resident or in flight, or creates
// a fresh in-flight one on a miss and makes the caller its builder.
func (c *Cache) acquire(k key) (*entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*entry), false
	}
	if e, ok := c.building[k]; ok {
		return e, false
	}
	e := &entry{key: k, ready: make(chan struct{})}
	c.building[k] = e
	return e, true
}

// settle ends e's build. A failed build just leaves the in-flight map,
// so the next request retries and no resident entry pays for it. A
// successful one joins the LRU, evicting down to the bound first, and
// memoizes the digest of memo, the list it was built from, while it is
// resident (a list two entries were built from is forgotten with the
// first to go, costing a rehash only). Eviction removes entries from
// the index only, never invalidating pointers that waiters hold.
func (c *Cache) settle(e *entry, memo pathsAt) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.building, e.key)
	if e.err != nil {
		return
	}
	for len(c.entries) >= c.capacity {
		back := c.lru.Back()
		be := back.Value.(*entry)
		c.lru.Remove(back)
		delete(c.entries, be.key)
		delete(c.pathSums, be.memo)
		c.evictions.Add(1)
		c.tel.Counter("synthcache.evictions").Inc()
	}
	c.entries[e.key] = c.lru.PushFront(e)
	if memo.n > 0 {
		e.memo = memo
		c.pathSums[memo] = e.key.sum
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
// builds and publishes the entry (an error is not kept, so the next
// request retries); later requests wait for it and share its System.
// build reports whether it pod-stamped. The digest of memo, the path
// list the request's key was hashed from (zero: none), is memoized if
// the build succeeds.
func (c *Cache) serve(k key, memo pathsAt, build func() (*core.System, bool, error)) (Result, error) {
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
	c.settle(e, memo)
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
	sum, at := c.pathsSumOf(paths)
	k := key{g: g, gen: g.Gen(), scheme: schemeGeneric, param: skip, sum: sum}
	return c.serve(k, at, func() (*core.System, bool, error) {
		sys, err := core.Synthesize(g, paths, opts)
		return sys, false, err
	})
}

// SynthesizeClos is a memoized core.ClosSynthesize for an explicit ELP
// path list.
func (c *Cache) SynthesizeClos(g *topology.Graph, paths []routing.Path, maxBounces int) (Result, error) {
	sum, at := c.pathsSumOf(paths)
	k := key{g: g, gen: g.Gen(), scheme: schemeClos, param: maxBounces, sum: sum}
	return c.serve(k, at, func() (*core.System, bool, error) {
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
