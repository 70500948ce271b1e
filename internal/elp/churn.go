package elp

import (
	"repro/internal/routing"
	"repro/internal/topology"
)

// Tracker maintains an ELP set through intent churn: switch drains for
// maintenance, links taken out of the ELP, and expansion-driven path
// additions. It partitions the tracked paths into *active* (currently
// usable, fed to synthesis) and *absent* (knocked out by some churn
// event, kept so a recovery can restore them), and every churn method
// returns the exact paths that moved, in ascending slot order — the delta
// the incremental re-synthesis path (core.Resynth) consumes. Tracking is
// permanent: a path keeps its slot for the tracker's lifetime.
//
// The tracker tracks intent only and reads no link health: a link is
// down exactly between its LinkDown and LinkUp, as a switch is drained
// between Drain and Undrain. Links are node pairs, as Graph.LinkBetween
// defines them; the graph supplies which links exist, never whether they
// are failed.
//
// Every tracked path carries an obstruction count: the down links it
// crosses plus the drained switches it visits (a hop between nodes the
// graph does not connect counts too, for good). Per-link and per-node
// slot lists name the paths each element obstructs, so an event costs
// the paths through the element, not the pool: marking an element down
// deactivates every active path through it, and clearing it revives
// exactly the absent paths whose count falls to zero. A path knocked out
// by link A that also crosses down link B or drained switch S keeps a
// nonzero count until the last of them clears.
type Tracker struct {
	g      *topology.Graph
	ix     routing.PathIndex // tracked paths by slot
	active []bool            // per slot
	obst   []int32           // per slot: obstructions on the path

	linkSlots [][]int32 // per link: the slots crossing it, once per hop
	nodeSlots [][]int32 // per node: the slots visiting it, once per visit
	down      []bool    // per link
	drained   []bool    // per node
}

// NewTracker tracks the paths of s over g, all initially active.
func NewTracker(g *topology.Graph, s *Set) *Tracker {
	t := &Tracker{g: g}
	paths := s.Paths()
	t.ix.Reserve(len(paths))
	t.active = make([]bool, 0, len(paths))
	for _, p := range paths {
		if _, added := t.ix.Add(p); added {
			t.active = append(t.active, true)
		}
	}
	t.index()
	return t
}

// index builds every slot list and obstruction count from the tracked
// paths, sizing each list exactly — the bulk form of track, for
// NewTracker (nothing is down or drained yet). Consecutive paths share
// prefixes, so a hop's link is looked up only past the previous path's.
func (t *Tracker) index() {
	t.growNodes(topology.NodeID(t.g.NumNodes() - 1))
	t.growLinks(t.g.NumLinks() - 1)
	nodeN := make([]int32, len(t.nodeSlots))
	linkN := make([]int32, len(t.linkSlots))
	nhops := 0
	for _, p := range t.ix.Paths() {
		nhops += max(len(p)-1, 0)
	}
	hops := make([]int32, 0, nhops) // per hop, in slot order: its link, or -1
	var prev routing.Path
	prevAt := 0
	for _, p := range t.ix.Paths() {
		shared := 0
		for shared < len(p) && shared < len(prev) && p[shared] == prev[shared] {
			shared++
		}
		at := len(hops)
		for i, v := range p {
			if int(v) >= len(nodeN) {
				t.growNodes(v)
				nodeN = append(nodeN, make([]int32, len(t.nodeSlots)-len(nodeN))...)
			}
			nodeN[v]++
			if i == 0 {
				continue
			}
			id := int32(-1)
			if i < shared {
				id = hops[prevAt+i-1]
			} else if l := t.g.LinkBetween(p[i-1], v); l != nil {
				id = int32(l.ID)
			}
			if id >= 0 {
				linkN[id]++
			}
			hops = append(hops, id)
		}
		prev, prevAt = p, at
	}
	carve := func(lists [][]int32, n []int32) {
		var total int32
		for _, c := range n {
			total += c
		}
		back := make([]int32, total)
		for i, c := range n {
			lists[i], back = back[:0:c], back[c:]
		}
	}
	carve(t.nodeSlots, nodeN)
	carve(t.linkSlots, linkN)
	t.obst = make([]int32, len(t.active))
	h := 0
	for slot, p := range t.ix.Paths() {
		s, n := int32(slot), int32(0)
		for i, v := range p {
			t.nodeSlots[v] = append(t.nodeSlots[v], s)
			if i == 0 {
				continue
			}
			if id := hops[h]; id < 0 {
				n++
			} else {
				t.linkSlots[id] = append(t.linkSlots[id], s)
			}
			h++
		}
		t.obst[slot] = n
	}
}

// track starts tracking p unless it is already tracked, active exactly
// when nothing obstructs it, and returns its slot and whether it is new.
func (t *Tracker) track(p routing.Path) (int, bool) {
	slot, added := t.ix.Add(p)
	if !added {
		return slot, false
	}
	s, n := int32(slot), int32(0)
	for i, v := range p {
		t.growNodes(v)
		t.nodeSlots[v] = append(t.nodeSlots[v], s)
		if t.drained[v] {
			n++
		}
		if i == 0 {
			continue
		}
		l := t.g.LinkBetween(p[i-1], v)
		if l == nil {
			n++
			continue
		}
		t.growLinks(int(l.ID))
		t.linkSlots[l.ID] = append(t.linkSlots[l.ID], s)
		if t.down[l.ID] {
			n++
		}
	}
	t.active = append(t.active, n == 0)
	t.obst = append(t.obst, n)
	return slot, true
}

func (t *Tracker) growNodes(v topology.NodeID) {
	for int(v) >= len(t.drained) {
		t.drained = append(t.drained, false)
		t.nodeSlots = append(t.nodeSlots, nil)
	}
}

func (t *Tracker) growLinks(id int) {
	for id >= len(t.down) {
		t.down = append(t.down, false)
		t.linkSlots = append(t.linkSlots, nil)
	}
}

// Active returns the currently active paths in insertion order.
func (t *Tracker) Active() []routing.Path {
	out := make([]routing.Path, 0, t.ix.Len())
	for i, p := range t.ix.Paths() {
		if t.active[i] {
			out = append(out, p)
		}
	}
	return out
}

// Drained reports whether sw is currently drained.
func (t *Tracker) Drained(sw topology.NodeID) bool {
	return int(sw) < len(t.drained) && t.drained[sw]
}

// linkDown returns the a-b link and whether it is marked down (nil,
// false when the nodes are not adjacent).
func (t *Tracker) linkDown(a, b topology.NodeID) (*topology.Link, bool) {
	l := t.g.LinkBetween(a, b)
	if l == nil {
		return nil, false
	}
	return l, int(l.ID) < len(t.down) && t.down[l.ID]
}

// Usable reports whether p could be active right now: every hop crosses
// a link that is not marked down and no node on it is drained. For a
// tracked path it holds exactly when the path's obstruction count is
// zero.
func (t *Tracker) Usable(p routing.Path) bool {
	for _, n := range p {
		if t.Drained(n) {
			return false
		}
	}
	for i := 1; i < len(p); i++ {
		if l, down := t.linkDown(p[i-1], p[i]); l == nil || down {
			return false
		}
	}
	return true
}

// LinkDown marks the a-b link down and deactivates every active path
// traversing it, returning them. The graph is untouched: Tracker only
// does path bookkeeping.
func (t *Tracker) LinkDown(a, b topology.NodeID) []routing.Path {
	l, down := t.linkDown(a, b)
	if l == nil || down {
		return nil
	}
	t.growLinks(int(l.ID))
	t.down[l.ID] = true
	return t.mark(t.linkSlots[l.ID])
}

// LinkUp clears the a-b link's down mark and returns the absent paths
// that became active: those it was the last obstruction of.
func (t *Tracker) LinkUp(a, b topology.NodeID) []routing.Path {
	l, down := t.linkDown(a, b)
	if !down {
		return nil
	}
	t.down[l.ID] = false
	return t.clear(t.linkSlots[l.ID])
}

// Drain marks sw as drained and deactivates every active path visiting
// it, returning them. The topology is untouched: drained switches still
// forward while the controller removes traffic from them.
func (t *Tracker) Drain(sw topology.NodeID) []routing.Path {
	if t.Drained(sw) {
		return nil
	}
	t.growNodes(sw)
	t.drained[sw] = true
	return t.mark(t.nodeSlots[sw])
}

// Undrain clears the drain mark and returns the absent paths that became
// active again.
func (t *Tracker) Undrain(sw topology.NodeID) []routing.Path {
	if !t.Drained(sw) {
		return nil
	}
	t.drained[sw] = false
	return t.clear(t.nodeSlots[sw])
}

// mark adds one obstruction to every slot of an element's list and
// returns the paths of those that were active, now absent. The lists are
// ascending, so the paths come out in slot order.
func (t *Tracker) mark(slots []int32) []routing.Path {
	out := make([]routing.Path, 0, len(slots))
	paths := t.ix.Paths()
	for _, s := range slots {
		t.obst[s]++
		if t.active[s] {
			t.active[s] = false
			out = append(out, paths[s])
		}
	}
	return out
}

// clear takes one obstruction off every slot of an element's list and
// returns the paths of those left with none, now active, in slot order.
func (t *Tracker) clear(slots []int32) []routing.Path {
	out := make([]routing.Path, 0, len(slots))
	paths := t.ix.Paths()
	for _, s := range slots {
		if t.obst[s]--; t.obst[s] == 0 {
			t.active[s] = true
			out = append(out, paths[s])
		}
	}
	return out
}

// AddPaths tracks any paths not yet known (deduplicated by node
// sequence) — the expansion entry point, fed the re-enumerated policy
// output. Usable paths start active and are returned; unusable ones are
// parked absent.
func (t *Tracker) AddPaths(paths []routing.Path) (activated []routing.Path) {
	for _, p := range paths {
		if slot, added := t.track(p); added && t.active[slot] {
			activated = append(activated, p)
		}
	}
	return activated
}
