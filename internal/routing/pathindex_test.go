package routing

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/topology"
)

// refIndex is the reference the path index is checked against: the
// string-keyed map it replaced, with the same slot discipline (new paths
// append).
type refIndex struct {
	slots map[string]int
	paths []Path
}

func newRefIndex() *refIndex { return &refIndex{slots: map[string]int{}} }

func (r *refIndex) add(p Path) (int, bool) {
	if s, ok := r.slots[p.Key()]; ok {
		return s, false
	}
	r.slots[p.Key()] = len(r.paths)
	r.paths = append(r.paths, p)
	return len(r.paths) - 1, true
}

func (r *refIndex) find(p Path) (int, bool) {
	s, ok := r.slots[p.Key()]
	return s, ok
}

// checkAgainst compares the whole observable state of ix with ref.
func checkAgainst(t testing.TB, ix *PathIndex, ref *refIndex) {
	t.Helper()
	if ix.Len() != len(ref.slots) {
		t.Fatalf("Len = %d, reference holds %d", ix.Len(), len(ref.slots))
	}
	got := ix.Paths()
	if len(got) != len(ref.paths) {
		t.Fatalf("Paths has %d slots, reference %d", len(got), len(ref.paths))
	}
	for i, p := range ref.paths {
		if !p.Equal(got[i]) {
			t.Fatalf("slot %d = %v, reference %v", i, got[i], p)
		}
	}
}

// driveOps replays an op stream — (op, path) pairs drawn from a small
// path universe so that duplicate adds and finds of present paths are
// both common — through ix and the reference, comparing every result.
// Ops 0 and 1 add, 2 and 3 find; op 1 on a path the reference lacks
// appends it unindexed instead, so the table is dropped and rebuilt
// between lookups.
func driveOps(t testing.TB, ix *PathIndex, next func() (op int, p Path), steps int) {
	t.Helper()
	ref := newRefIndex()
	for i := 0; i < steps; i++ {
		op, p := next()
		var gs, ws int
		var gok, wok bool
		switch op % 4 {
		case 1:
			if _, ok := ref.find(p); !ok {
				gs, gok = ix.Append(p), true
				ws, wok = ref.add(p)
				break
			}
			fallthrough
		case 0:
			gs, gok = ix.Add(p)
			ws, wok = ref.add(p)
		case 2, 3:
			gs, gok = ix.Find(p)
			ws, wok = ref.find(p)
		}
		if gok != wok || (gok && gs != ws) || (op%4 <= 1 && gs != ws) {
			t.Fatalf("step %d op %d on %v: got (%d,%v), reference (%d,%v)", i, op%4, p, gs, gok, ws, wok)
		}
	}
	checkAgainst(t, ix, ref)
}

func randomPath(rng *rand.Rand, nodes, maxLen int) Path {
	p := make(Path, 1+rng.Intn(maxLen))
	for i := range p {
		p[i] = topology.NodeID(rng.Intn(nodes))
	}
	return p
}

func TestPathIndexDifferential(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Few nodes and short paths: the universe is small enough that the
		// stream keeps hitting paths it has already added.
		nodes, maxLen := 2+rng.Intn(6), 1+rng.Intn(4)
		var ix PathIndex
		if seed%2 == 0 {
			ix.Reserve(rng.Intn(64))
		}
		driveOps(t, &ix, func() (int, Path) { return rng.Intn(4), randomPath(rng, nodes, maxLen) }, 4000)
	}
}

// TestPathIndexForcedCollisions gives every path the same hash: the
// table degenerates to one probe chain and only Path.Equal can tell the
// entries apart, so passing the differential here proves the hash never
// decides membership.
func TestPathIndexForcedCollisions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ix := PathIndex{hash: func(Path) uint64 { return 0xdeadbeefcafef00d }}
	driveOps(t, &ix, func() (int, Path) { return rng.Intn(4), randomPath(rng, 5, 3) }, 3000)

	a, b := Path{1, 2, 3}, Path{3, 2, 1}
	ix = PathIndex{hash: func(Path) uint64 { return 0 }}
	sa, _ := ix.Add(a)
	if _, ok := ix.Find(b); ok {
		t.Fatal("a colliding but different path reads as present")
	}
	sb, added := ix.Add(b)
	if !added || sa == sb {
		t.Fatalf("colliding path not stored apart: slots %d, %d added=%v", sa, sb, added)
	}
	if s, ok := ix.Find(Path{1, 2, 3}); !ok || s != sa {
		t.Fatalf("Find(a) = (%d,%v) after a collision, want (%d,true)", s, ok, sa)
	}
}

func TestPathIndexEmptyPathAndZeroValue(t *testing.T) {
	var ix PathIndex
	if _, ok := ix.Find(Path{1}); ok {
		t.Fatal("zero index finds a path")
	}
	if s, added := ix.Add(nil); !added || s != 0 || len(ix.Paths()[0]) != 0 {
		t.Fatalf("Add(nil) = (%d,%v), stored %v", s, added, ix.Paths()[0])
	}
	if _, added := ix.Add(Path{}); added {
		t.Fatal("the empty path was added twice")
	}
}

// FuzzPathIndex drives an arbitrary op stream through the index and the
// string-keyed reference. Each input byte is one op on one path from a
// 64-path universe; the first byte picks normal or all-colliding hashing.
func FuzzPathIndex(f *testing.F) {
	f.Add([]byte{0, 0x01, 0x41, 0x81, 0xc1, 0x01})
	f.Add([]byte{1, 0x05, 0x06, 0xc5, 0x05, 0x86, 0xc6, 0x06})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		var ix PathIndex
		if data[0]&1 == 1 {
			ix.hash = func(Path) uint64 { return 1 }
		}
		ops := data[1:]
		i := 0
		driveOps(t, &ix, func() (int, Path) {
			b := ops[i]
			i++
			// 6 bits of path identity: length 1..4 over nodes 0..3.
			id := int(b & 0x3f)
			p := make(Path, 1+id&3)
			for j := range p {
				p[j] = topology.NodeID((id >> 2 >> (j % 4)) & 3)
			}
			return int(b >> 6), p
		}, len(ops))
	})
}

// TestPathIndexAppendDefersTable: appended paths take the slots Add
// would give them and build no table; the first lookup builds it over
// every stored path, and an Add of a present path then finds its slot.
func TestPathIndexAppendDefersTable(t *testing.T) {
	paths := []Path{{1, 2}, {2, 1}, {1, 3, 2}, {4}}
	var ix PathIndex
	ix.Reserve(len(paths))
	for i, p := range paths {
		if slot := ix.Append(p); slot != i {
			t.Fatalf("Append(%v) = slot %d, want %d", p, slot, i)
		}
	}
	if ix.table != nil || ix.Len() != len(paths) || !slices.EqualFunc(ix.Paths(), paths, Path.Equal) {
		t.Fatalf("after Append: table built = %v, Len %d, Paths %v", ix.table != nil, ix.Len(), ix.Paths())
	}
	if s, ok := ix.Find(Path{1, 3, 2}); !ok || s != 2 || ix.table == nil {
		t.Fatalf("Find = (%d,%v), table built = %v; want (2,true), built", s, ok, ix.table != nil)
	}
	if s, added := ix.Add(Path{2, 1}); added || s != 1 {
		t.Fatalf("Add of a present path = (%d,%v), want (1,false)", s, added)
	}
	ix.Append(Path{5, 6})
	if ix.table != nil {
		t.Fatal("Append kept a table that lacks the new path")
	}
	if s, added := ix.Add(Path{5, 6}); added || s != 4 {
		t.Fatalf("Add after Append = (%d,%v), want (4,false)", s, added)
	}
}
