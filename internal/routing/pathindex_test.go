package routing

import (
	"math/rand"
	"testing"

	"repro/internal/topology"
)

// refIndex is the reference the path index is checked against: the
// string-keyed map it replaced, with the same slot discipline (new paths
// append, removed slots go nil and are never reused).
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

func (r *refIndex) remove(p Path) (int, bool) {
	s, ok := r.slots[p.Key()]
	if ok {
		delete(r.slots, p.Key())
		r.paths[s] = nil
	}
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
		if (p == nil) != (got[i] == nil) || !p.Equal(got[i]) {
			t.Fatalf("slot %d = %v, reference %v", i, got[i], p)
		}
	}
}

// driveOps replays an op stream — (op, path) pairs drawn from a small
// path universe so that duplicates, removals of present paths and re-adds
// are all common — through ix and the reference, comparing every result.
func driveOps(t testing.TB, ix *PathIndex, next func() (op int, p Path), steps int) {
	t.Helper()
	ref := newRefIndex()
	for i := 0; i < steps; i++ {
		op, p := next()
		var gs, ws int
		var gok, wok bool
		switch op % 4 {
		case 0, 1:
			gs, gok = ix.Add(p)
			ws, wok = ref.add(p)
		case 2:
			gs, gok = ix.Find(p)
			ws, wok = ref.find(p)
		case 3:
			gs, gok = ix.Remove(p)
			ws, wok = ref.remove(p)
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
		// stream keeps hitting paths it has already added or removed.
		nodes, maxLen := 2+rng.Intn(6), 1+rng.Intn(4)
		var ix PathIndex
		if seed%2 == 0 {
			ix.Reserve(rng.Intn(64))
		}
		driveOps(t, &ix, func() (int, Path) { return rng.Intn(4), randomPath(rng, nodes, maxLen) }, 4000)
	}
}

// TestPathIndexTrackerPattern is the elp.Tracker life cycle: track a set,
// forget most of it (tombstones pile up), then re-add the forgotten
// paths, which must land in new slots at the end.
func TestPathIndexTrackerPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ix PathIndex
	ref := newRefIndex()
	var all []Path
	for len(all) < 500 {
		p := randomPath(rng, 40, 6)
		if _, fresh := ref.add(p); fresh {
			all = append(all, p)
		}
		ix.Add(p)
	}
	checkAgainst(t, &ix, ref)
	for _, p := range all[:400] {
		gs, gok := ix.Remove(p)
		ws, wok := ref.remove(p)
		if gs != ws || gok != wok {
			t.Fatalf("Remove(%v) = (%d,%v), reference (%d,%v)", p, gs, gok, ws, wok)
		}
	}
	checkAgainst(t, &ix, ref)
	for _, p := range all[:400] {
		if _, ok := ix.Find(p); ok {
			t.Fatalf("removed path %v still found", p)
		}
	}
	for i, p := range all[:400] {
		slot, added := ix.Add(p)
		if !added || slot != 500+i {
			t.Fatalf("re-add %d = (%d,%v), want (%d,true)", i, slot, added, 500+i)
		}
	}
	if ix.Len() != 500 {
		t.Fatalf("Len = %d after re-adds, want 500", ix.Len())
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
	if _, ok := ix.Remove(Path{1}); ok {
		t.Fatal("zero index removes a path")
	}
	if s, added := ix.Add(nil); !added || s != 0 || ix.Paths()[0] == nil {
		t.Fatalf("Add(nil) = (%d,%v), stored %v: an empty path must not read as a removed slot", s, added, ix.Paths()[0])
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
