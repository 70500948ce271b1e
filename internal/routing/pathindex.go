package routing

// PathIndex is an insertion-ordered set of paths keyed by exact node
// sequence: the one dedup mechanism behind every ELP container (elp.Set,
// elp.Tracker, core.Resynth, the enumerators' seen-sets). Each distinct
// path gets a dense slot — its position in Paths() — that callers use to
// key parallel per-path state.
//
// The table is open-addressed with linear probing over one flat []uint64:
// no per-path allocation, and the paths themselves are never copied, so
// they may live in shared arenas. A cell packs the high half of the
// path's 64-bit hash beside slot+1. The hash is only a hint — it picks
// the probe start and filters cells cheaply; membership is decided by
// Path.Equal against the stored path on every tag match, so colliding
// paths coexist and a hash change can never alter what the set contains.
//
// The zero value is an empty index ready for use. Not safe for concurrent
// mutation.
type PathIndex struct {
	paths []Path   // slot -> path, insertion order; nil = removed
	table []uint64 // hash>>32<<32 | slot+1; low half 0 = empty, cellDead = tombstone
	live  int      // paths present
	used  int      // non-empty cells: live + tombstones

	// hash overrides hashPath; tests force collisions through it.
	hash func(Path) uint64
}

const (
	cellSlotMask = 1<<32 - 1
	cellDead     = cellSlotMask // low half of a tombstoned cell
)

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

// Reserve sizes the index to hold n paths in total without growing.
func (ix *PathIndex) Reserve(n int) {
	if n > cap(ix.paths) {
		ix.paths = append(make([]Path, 0, n), ix.paths...)
	}
	if want := tableSize(n); want > len(ix.table) {
		ix.rehash(want)
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
func (ix *PathIndex) Len() int { return ix.live }

// Paths returns the paths by slot, in insertion order; a removed path's
// slot holds nil. The slice is shared; do not modify it.
func (ix *PathIndex) Paths() []Path { return ix.paths }

// Find returns the slot of the path with p's exact node sequence.
func (ix *PathIndex) Find(p Path) (slot int, ok bool) {
	if ix.live == 0 {
		return 0, false
	}
	if slot, _ = ix.probe(p, ix.hashOf(p)); slot < 0 {
		return 0, false
	}
	return slot, true
}

// Add inserts p unless a path with the same node sequence is present,
// and returns its slot either way. New paths take the next slot; p is
// stored, not copied.
func (ix *PathIndex) Add(p Path) (slot int, added bool) {
	if (ix.used+1)*4 > len(ix.table)*3 {
		ix.rehash(tableSize(2 * (ix.live + 1)))
	}
	h := ix.hashOf(p)
	slot, cell := ix.probe(p, h)
	if slot >= 0 {
		return slot, false
	}
	if len(ix.paths) >= cellDead-1 {
		panic("routing: path index full")
	}
	if p == nil {
		p = Path{} // nil marks a removed slot
	}
	slot = len(ix.paths)
	ix.paths = append(ix.paths, p)
	if ix.table[cell]&cellSlotMask == 0 {
		ix.used++
	}
	ix.table[cell] = h&^cellSlotMask | uint64(slot+1)
	ix.live++
	return slot, true
}

// Remove deletes the path with p's node sequence and returns the slot it
// held. The slot is not reused: Paths() keeps a nil there.
func (ix *PathIndex) Remove(p Path) (slot int, ok bool) {
	if ix.live == 0 {
		return 0, false
	}
	slot, cell := ix.probe(p, ix.hashOf(p))
	if slot < 0 {
		return 0, false
	}
	ix.table[cell] = cellDead
	ix.paths[slot] = nil
	ix.live--
	return slot, true
}

// probe walks p's probe sequence. It returns p's slot and cell when
// present; otherwise slot -1 and the cell an insert should take (the
// first tombstone passed, else the empty cell that ended the walk). The
// table always keeps an empty cell, so the walk terminates.
func (ix *PathIndex) probe(p Path, h uint64) (slot, cell int) {
	mask := len(ix.table) - 1
	tag := h &^ cellSlotMask
	free := -1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		c := ix.table[i]
		switch low := c & cellSlotMask; {
		case low == 0:
			if free < 0 {
				free = i
			}
			return -1, free
		case low == cellDead:
			if free < 0 {
				free = i
			}
		case c&^cellSlotMask == tag && ix.paths[low-1].Equal(p):
			return int(low - 1), i
		}
	}
}

// rehash rebuilds the table at the given size from the present paths,
// dropping tombstones.
func (ix *PathIndex) rehash(size int) {
	ix.table = make([]uint64, size)
	mask := size - 1
	for slot, p := range ix.paths {
		if p == nil {
			continue
		}
		h := ix.hashOf(p)
		i := int(h) & mask
		for ix.table[i] != 0 {
			i = (i + 1) & mask
		}
		ix.table[i] = h&^cellSlotMask | uint64(slot+1)
	}
	ix.used = ix.live
}
