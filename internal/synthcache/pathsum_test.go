package synthcache

import (
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/elp"
	"repro/internal/routing"
	"repro/internal/topology"
)

// refPathsSum is pathsSum as it was before it streamed: the whole
// encoding laid out in one buffer, then hashed. Kept verbatim as the
// reference that pins every cache key.
func refPathsSum(paths []routing.Path) [sha256.Size]byte {
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

// TestPathsSumMatchesOneBufferDigest: the streamed digest is the one the
// single-buffer encoding gave, so every cache key is unchanged — on the
// Jellyfish-200 ELP (tens of thousands of paths, many buffer flushes),
// an empty and a nil list, one-node paths, empty paths, and node IDs
// whose varints take one, two, three and ten bytes, laid across a flush.
func TestPathsSumMatchesOneBufferDigest(t *testing.T) {
	j, err := topology.NewJellyfish(topology.JellyfishConfig{Switches: 200, Ports: 24, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	long := make(routing.Path, 5000)
	for i := range long {
		long[i] = topology.NodeID([]int{1, 200, 70000, -1}[i%4])
	}
	lists := map[string][]routing.Path{
		"jellyfish200 ELP": elp.ShortestAll(j.Graph, j.Switches).Paths(),
		"empty":            {},
		"nil":              nil,
		"one-node paths":   {{0}, {7}, {300}},
		"empty paths":      {{}, nil, {3}},
		"wide varints":     {{127, 128, 16383, 16384}, long, {topology.InvalidNode}},
	}
	for name, paths := range lists {
		if got, want := pathsSum(paths), refPathsSum(paths); got != want {
			t.Errorf("%s: streamed digest %x, one-buffer digest %x", name, got, want)
		}
	}
	if pathsSum(lists["one-node paths"]) == pathsSum(lists["empty"]) {
		t.Error("distinct lists share a digest")
	}
}

// TestPathsMemoHoldsResidentBuildersOnly: the digest memo keeps a path
// list only while an entry built from it is resident. A twin list that
// hits the entry, a request that fails to build, and an evicted entry's
// list are not (or no longer) memoized; a failed build evicts nothing.
func TestPathsMemoHoldsResidentBuildersOnly(t *testing.T) {
	cl, err := topology.NewClos(topology.ClosConfig{Pods: 4, ToRsPerPod: 2, LeafsPerPod: 2, Spines: 4, HostsPerToR: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := cl.Graph
	memoized := func(c *Cache) []pathsAt {
		c.mu.Lock()
		defer c.mu.Unlock()
		var out []pathsAt
		for at, sum := range c.pathSums {
			if sum != pathsSum(unsafe.Slice(at.head, at.n)) {
				t.Fatalf("memoized digest %x is not its list's", sum)
			}
			out = append(out, at)
		}
		return out
	}
	at := func(paths []routing.Path) pathsAt { return pathsAt{head: &paths[0], n: len(paths)} }

	c := New(1)
	a := elp.KBounce(g, cl.ToRs, 1, nil).Paths()
	if _, err := c.SynthesizeClos(g, a, 1); err != nil {
		t.Fatal(err)
	}
	if m := memoized(c); len(m) != 1 || m[0] != at(a) {
		t.Fatalf("after building from a: memo holds %d lists, want a", len(m))
	}
	if r, err := c.SynthesizeClos(g, slices.Clone(a), 1); err != nil || !r.Hit {
		t.Fatalf("twin list: hit=%v err=%v", r.Hit, err)
	}
	if m := memoized(c); len(m) != 1 || m[0] != at(a) {
		t.Fatalf("after a twin's hit: memo holds %d lists, want a only", len(m))
	}
	// A 2-bounce ELP against a 1-bounce budget fails to build. A build
	// joins the LRU only once it succeeds, so a's entry stays resident
	// and a's list memoized; the failing list is not memoized.
	two := elp.KBounce(g, cl.ToRs, 2, nil).Paths()
	if _, err := c.SynthesizeClos(g, two, 1); err == nil {
		t.Fatal("expected a synthesis error")
	}
	if m := memoized(c); len(m) != 1 || m[0] != at(a) {
		t.Fatalf("after a failed build: memo holds %d lists, want a only", len(m))
	}
	if _, err := c.SynthesizeClos(g, two, 2); err != nil {
		t.Fatal(err)
	}
	if m := memoized(c); len(m) != 1 || m[0] != at(two) {
		t.Fatalf("after a build from the 2-bounce ELP: memo holds %d lists, want it only", len(m))
	}
	if _, err := c.SynthesizeClos(g, a, 1); err != nil {
		t.Fatal(err)
	}
	if m := memoized(c); len(m) != 1 || m[0] != at(a) {
		t.Fatalf("after a rebuild from a: memo holds %d lists, want a only", len(m))
	}
}
