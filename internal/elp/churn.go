package elp

import (
	"slices"

	"repro/internal/routing"
	"repro/internal/topology"
)

// Tracker maintains an ELP set through fabric churn: link failures and
// recoveries, switch drains for maintenance, and expansion-driven path
// additions. It partitions the tracked paths into *active* (currently
// usable, fed to synthesis) and *absent* (knocked out by some churn
// event, kept so a recovery can restore them), and every churn method
// returns the exact paths that moved, in ascending slot order — the delta
// the incremental re-synthesis path (core.Resynth) consumes. Tracking is
// permanent: a path keeps its slot for the tracker's lifetime.
//
// Every tracked path carries an obstruction count: the failed links it
// crosses plus the drained switches it visits (a hop between nodes the
// graph does not connect counts too, for good). Per-link and per-node
// slot lists name the paths each element obstructs, so an event costs
// the paths through the element, not the pool: LinkDown and Drain
// deactivate every active path through the element, and LinkUp and
// Undrain revive exactly the absent paths whose count falls to zero. A
// path knocked out by link A that also crosses failed link B or drained
// switch S keeps a nonzero count until the last of them clears.
//
// Links are node pairs, as Graph.FailLink and Graph.LinkBetween define
// them. The tracker keeps its own failed bit per link and reconciles it
// with Link.Failed whenever it reads the link: NewTracker reads every
// link, LinkDown and LinkUp read theirs, and AddPaths reads the links of
// the paths it starts tracking. A link whose health changes in the graph
// is invisible to the tracker until then.
type Tracker struct {
	g      *topology.Graph
	ix     routing.PathIndex // tracked paths by slot
	active []bool            // per slot
	obst   []int32           // per slot: obstructions on the path

	linkSlots [][]int32 // per link: the slots crossing it, once per hop
	nodeSlots [][]int32 // per node: the slots visiting it, once per visit
	failed    []bool    // per link: Link.Failed as last read
	drained   []bool    // per node

	// pending holds absent slots whose count fell to zero outside a
	// recovery: paths a LinkDown took off a link the graph still calls
	// healthy, or paths across a link AddPaths found silently restored.
	// The next LinkUp or Undrain revives them with its own.
	pending []int32
}

// NewTracker tracks the paths of s (all initially active) over g, reading
// every link of g.
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
	t.growLinks(g.NumLinks() - 1)
	for i := range t.failed {
		t.failed[i] = g.Link(topology.LinkID(i)).Failed
	}
	t.index()
	return t
}

// index builds every slot list and obstruction count from the tracked
// paths and the failed bits, sizing each list exactly — the bulk form of
// track, for NewTracker (nothing is drained yet). Consecutive paths share
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
				if t.failed[id] {
					n++
				}
			}
			h++
		}
		t.obst[slot] = n
	}
}

// track starts tracking p unless it is already tracked, reading every
// link it crosses, and returns its slot and whether it is new.
func (t *Tracker) track(p routing.Path, active bool) (int, bool) {
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
		t.readLink(l, &t.pending)
		t.linkSlots[l.ID] = append(t.linkSlots[l.ID], s)
		if t.failed[l.ID] {
			n++
		}
	}
	t.active = append(t.active, active)
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
	for id >= len(t.failed) {
		t.failed = append(t.failed, false)
		t.linkSlots = append(t.linkSlots, nil)
	}
}

// readLink reconciles the tracker's bit for l with l.Failed and moves the
// count of every path across l to match; absent slots whose count falls
// to zero are appended to freed.
func (t *Tracker) readLink(l *topology.Link, freed *[]int32) {
	id := int(l.ID)
	t.growLinks(id)
	if t.failed[id] == l.Failed {
		return
	}
	t.failed[id] = l.Failed
	d := int32(-1)
	if l.Failed {
		d = 1
	}
	for _, s := range t.linkSlots[id] {
		t.obst[s] += d
		if t.obst[s] == 0 && !t.active[s] {
			*freed = append(*freed, s)
		}
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

// ActiveLen returns the number of active paths.
func (t *Tracker) ActiveLen() int {
	n := 0
	for _, a := range t.active {
		if a {
			n++
		}
	}
	return n
}

// AbsentLen returns the number of tracked-but-unusable paths.
func (t *Tracker) AbsentLen() int { return t.ix.Len() - t.ActiveLen() }

// Drained reports whether sw is currently drained.
func (t *Tracker) Drained(sw topology.NodeID) bool {
	return int(sw) < len(t.drained) && t.drained[sw]
}

// Usable reports whether p could be active right now: every hop crosses a
// healthy link and no node on it is drained. For a tracked path it holds
// exactly when the path's obstruction count is zero, as long as the
// tracker has read every link whose health the graph changed.
func (t *Tracker) Usable(p routing.Path) bool {
	for _, n := range p {
		if t.Drained(n) {
			return false
		}
	}
	for i := 1; i < len(p); i++ {
		l := t.g.LinkBetween(p[i-1], p[i])
		if l == nil || l.Failed {
			return false
		}
	}
	return true
}

// LinkDown deactivates every active path traversing the a-b link and
// returns them. The caller is responsible for the topology-side
// Graph.FailLink; Tracker only does path bookkeeping.
func (t *Tracker) LinkDown(a, b topology.NodeID) []routing.Path {
	l := t.g.LinkBetween(a, b)
	if l == nil {
		return nil
	}
	t.readLink(l, &t.pending)
	out := make([]routing.Path, 0, len(t.linkSlots[l.ID]))
	paths := t.ix.Paths()
	for _, s := range t.linkSlots[l.ID] {
		if !t.active[s] {
			continue
		}
		t.active[s] = false
		if t.obst[s] == 0 {
			t.pending = append(t.pending, s)
		}
		out = append(out, paths[s])
	}
	return out
}

// LinkUp reads the a-b link and returns the absent paths that became
// active: those it was the last obstruction of, plus any pending ones.
// The caller restores the link in the Graph first.
func (t *Tracker) LinkUp(a, b topology.NodeID) []routing.Path {
	var freed []int32
	if l := t.g.LinkBetween(a, b); l != nil {
		t.readLink(l, &freed)
	}
	return t.revive(freed)
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
	out := make([]routing.Path, 0, len(t.nodeSlots[sw]))
	paths := t.ix.Paths()
	for _, s := range t.nodeSlots[sw] {
		t.obst[s]++
		if t.active[s] {
			t.active[s] = false
			out = append(out, paths[s])
		}
	}
	return out
}

// Undrain clears the drain mark and returns the absent paths that became
// active again.
func (t *Tracker) Undrain(sw topology.NodeID) []routing.Path {
	if !t.Drained(sw) {
		return nil
	}
	t.drained[sw] = false
	freed := make([]int32, 0, len(t.nodeSlots[sw]))
	for _, s := range t.nodeSlots[sw] {
		t.obst[s]--
		if t.obst[s] == 0 && !t.active[s] {
			freed = append(freed, s)
		}
	}
	return t.revive(freed)
}

// revive activates the freed slots and the pending ones that are still
// absent and unobstructed, and returns their paths in slot order. freed
// must be ascending.
func (t *Tracker) revive(freed []int32) []routing.Path {
	if len(t.pending) > 0 {
		freed = append(freed, t.pending...)
		t.pending = t.pending[:0]
		slices.Sort(freed)
	}
	out := make([]routing.Path, 0, len(freed))
	paths := t.ix.Paths()
	for _, s := range freed {
		if t.active[s] || t.obst[s] != 0 {
			continue
		}
		t.active[s] = true
		out = append(out, paths[s])
	}
	return out
}

// AddPaths tracks any paths not yet known (deduplicated by node
// sequence) — the expansion entry point, fed the re-enumerated policy
// output. Usable paths start active and are returned; unusable ones are
// parked absent.
func (t *Tracker) AddPaths(paths []routing.Path) (activated []routing.Path) {
	for _, p := range paths {
		slot, added := t.track(p, false)
		if !added || t.obst[slot] != 0 {
			continue
		}
		t.active[slot] = true
		activated = append(activated, p)
	}
	return activated
}
