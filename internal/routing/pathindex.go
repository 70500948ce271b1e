package routing

// PathIndex is an append-only, insertion-ordered set of paths keyed by
// exact node sequence: the one dedup mechanism behind every ELP container
// (elp.Set, elp.Tracker, core.Resynth, the enumerators' seen-sets). Each
// distinct path gets a dense slot — its position in Paths() — that
// callers use to key parallel per-path state. A slot is a path's
// permanent identity: paths are never removed, so slots are never
// vacated or reused.
//
// The table is open-addressed with linear probing over one flat []uint64:
// no per-path allocation, and the paths themselves are never copied, so
// they may live in shared arenas. A cell packs the high half of the
// path's 64-bit hash beside slot+1. The hash is only a hint — it picks
// the probe start and filters cells cheaply; membership is decided by
// Path.Equal against the stored path on every tag match, so colliding
// paths coexist and a hash change can never alter what the set contains.
//
// The table is built on demand. Append stores a path the caller knows to
// be new without touching it, and leaves it unbuilt; the next Add, Find
// or Index builds it over every stored path. An enumerator whose output
// is distinct by construction thus pays for the table only if someone
// looks a path up.
//
// The zero value is an empty index ready for use. Not safe for concurrent
// mutation, and a Find that builds the table mutates: readers sharing an
// index that Append filled call Index once first (elp.Set does, under a
// sync.Once).
type PathIndex struct {
	paths []Path   // slot -> path, insertion order
	table []uint64 // hash>>32<<32 | slot+1; low half 0 = empty; nil = unbuilt

	// hash overrides hashPath; tests force collisions through it.
	hash func(Path) uint64
}

const cellSlotMask = 1<<32 - 1

// hashPath is FNV-1a over the node IDs with a murmur finalizer, so both
// the low bits (probe start) and the high bits (cell tag) are mixed.
func hashPath(p Path) uint64 {
	h := uint64(14695981039346656037)
	for _, n := range p {
		h = (h ^ uint64(uint32(n))) * 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

func (ix *PathIndex) hashOf(p Path) uint64 {
	if ix.hash != nil {
		return ix.hash(p)
	}
	return hashPath(p)
}

// Reserve sizes the index to hold n paths in total without growing: the
// slots now, the table when it is next (re)built, which sizes itself by
// the slots' capacity.
func (ix *PathIndex) Reserve(n int) {
	if n > cap(ix.paths) {
		ix.paths = append(make([]Path, 0, n), ix.paths...)
	}
}

// tableSize is the smallest power-of-two table keeping n cells at or
// under 3/4 load.
func tableSize(n int) int {
	size := 8
	for size*3 < n*4 {
		size *= 2
	}
	return size
}

// Len returns the number of paths present.
func (ix *PathIndex) Len() int { return len(ix.paths) }

// Paths returns the paths by slot, in insertion order. The slice is
// shared; do not modify it.
func (ix *PathIndex) Paths() []Path { return ix.paths }

// Find returns the slot of the path with p's exact node sequence,
// building the table first if it is unbuilt.
func (ix *PathIndex) Find(p Path) (slot int, ok bool) {
	if len(ix.paths) == 0 {
		return 0, false
	}
	if ix.table == nil {
		ix.Index()
	}
	if slot, _ = ix.probe(p, ix.hashOf(p)); slot < 0 {
		return 0, false
	}
	return slot, true
}

// Add inserts p unless a path with the same node sequence is present,
// and returns its slot either way. New paths take the next slot; p is
// stored, not copied. An unbuilt table is built (and a full one grown)
// first.
func (ix *PathIndex) Add(p Path) (slot int, added bool) {
	if (len(ix.paths)+1)*4 > len(ix.table)*3 {
		ix.rehash(tableSize(max(2*(len(ix.paths)+1), cap(ix.paths))))
	}
	h := ix.hashOf(p)
	slot, cell := ix.probe(p, h)
	if slot >= 0 {
		return slot, false
	}
	slot = ix.appendSlot(p)
	ix.table[cell] = h&^cellSlotMask | uint64(slot+1)
	return slot, true
}

// Append stores p at the next slot without indexing it and returns the
// slot. The caller guarantees that no stored path has p's node sequence
// — an enumerator that emits each path once can — so slots and Paths()
// are what Add would have produced. The table is dropped; the next Add,
// Find or Index rebuilds it over every stored path.
func (ix *PathIndex) Append(p Path) (slot int) {
	ix.table = nil
	return ix.appendSlot(p)
}

// Index builds the table if Append left it unbuilt, and is a no-op
// otherwise. Once it has run, Find only reads until the next Append.
func (ix *PathIndex) Index() {
	if ix.table == nil && len(ix.paths) > 0 {
		ix.rehash(tableSize(cap(ix.paths)))
	}
}

func (ix *PathIndex) appendSlot(p Path) int {
	if len(ix.paths) >= cellSlotMask {
		panic("routing: path index full")
	}
	ix.paths = append(ix.paths, p)
	return len(ix.paths) - 1
}

// probe walks p's probe sequence. It returns p's slot and cell when
// present; otherwise slot -1 and the empty cell that ended the walk,
// which an insert takes. The table always keeps an empty cell, so the
// walk terminates.
func (ix *PathIndex) probe(p Path, h uint64) (slot, cell int) {
	mask := len(ix.table) - 1
	tag := h &^ cellSlotMask
	for i := int(h) & mask; ; i = (i + 1) & mask {
		c := ix.table[i]
		low := c & cellSlotMask
		if low == 0 {
			return -1, i
		}
		if c&^cellSlotMask == tag && ix.paths[low-1].Equal(p) {
			return int(low - 1), i
		}
	}
}

// rehash rebuilds the table at the given size from the stored paths.
func (ix *PathIndex) rehash(size int) {
	ix.table = make([]uint64, size)
	mask := size - 1
	for slot, p := range ix.paths {
		h := ix.hashOf(p)
		i := int(h) & mask
		for ix.table[i] != 0 {
			i = (i + 1) & mask
		}
		ix.table[i] = h&^cellSlotMask | uint64(slot+1)
	}
}
