package elp

import (
	"repro/internal/routing"
	"repro/internal/topology"
)

// Tracker maintains an ELP set through fabric churn: link failures and
// recoveries, switch drains for maintenance, and expansion-driven path
// additions. It partitions the tracked paths into *active* (currently
// usable, fed to synthesis) and *absent* (knocked out by some churn
// event, kept so a recovery can restore them), and every churn method
// returns the exact paths that moved — the delta the incremental
// re-synthesis path (core.Resynth) consumes.
//
// Absent paths live in one global pool, not per-event buckets: a path
// knocked out by link A may also traverse failed link B or drained
// switch S, so every recovery re-validates the whole pool against
// current topology health rather than trusting the event that parked it.
type Tracker struct {
	g       *topology.Graph
	ix      routing.PathIndex // tracked paths by slot; nil = forgotten
	active  []bool            // per slot; false for forgotten slots
	dead    int               // forgotten slots
	drained map[topology.NodeID]bool
}

// NewTracker tracks the paths of s (all initially active) over g.
func NewTracker(g *topology.Graph, s *Set) *Tracker {
	t := &Tracker{g: g, drained: make(map[topology.NodeID]bool)}
	t.ix.Reserve(s.Len())
	for _, p := range s.Paths() {
		t.track(p, true)
	}
	return t
}

// track starts tracking p unless it is already tracked.
func (t *Tracker) track(p routing.Path, active bool) {
	if _, added := t.ix.Add(p); added {
		t.active = append(t.active, active)
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
func (t *Tracker) Drained(sw topology.NodeID) bool { return t.drained[sw] }

// Usable reports whether p could be active right now: every hop crosses a
// healthy link and no node on it is drained.
func (t *Tracker) Usable(p routing.Path) bool {
	for _, n := range p {
		if t.drained[n] {
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
	var out []routing.Path
	for i, p := range t.ix.Paths() {
		if !t.active[i] || !traverses(p, a, b) {
			continue
		}
		t.active[i] = false
		out = append(out, p)
	}
	return out
}

// LinkUp re-validates the whole absent pool (the a-b arguments are
// documentation of the trigger; restoring one link can revive paths
// parked by any earlier event) and returns the paths that became active.
// The caller restores the link in the Graph first.
func (t *Tracker) LinkUp(a, b topology.NodeID) []routing.Path {
	return t.revalidate()
}

// Drain marks sw as drained and deactivates every active path visiting
// it, returning them. The topology is untouched: drained switches still
// forward while the controller removes traffic from them.
func (t *Tracker) Drain(sw topology.NodeID) []routing.Path {
	if t.drained[sw] {
		return nil
	}
	t.drained[sw] = true
	var out []routing.Path
	for i, p := range t.ix.Paths() {
		if !t.active[i] || !visits(p, sw) {
			continue
		}
		t.active[i] = false
		out = append(out, p)
	}
	return out
}

// Undrain clears the drain mark and returns the absent paths that became
// active again.
func (t *Tracker) Undrain(sw topology.NodeID) []routing.Path {
	if !t.drained[sw] {
		return nil
	}
	delete(t.drained, sw)
	return t.revalidate()
}

// AddPaths tracks any paths not yet known (deduplicated by node
// sequence) — the expansion entry point, fed the re-enumerated policy
// output. Usable paths start active and are returned; unusable ones are
// parked absent.
func (t *Tracker) AddPaths(paths []routing.Path) (activated []routing.Path) {
	for _, p := range paths {
		if _, known := t.ix.Find(p); known {
			continue
		}
		usable := t.Usable(p)
		t.track(p, usable)
		if usable {
			activated = append(activated, p)
		}
	}
	return activated
}

// Remove forgets paths entirely (no recovery will restore them).
func (t *Tracker) Remove(paths []routing.Path) (deactivated []routing.Path) {
	for _, p := range paths {
		slot, ok := t.ix.Find(p)
		if !ok {
			continue
		}
		if t.active[slot] {
			deactivated = append(deactivated, t.ix.Paths()[slot])
			t.active[slot] = false
		}
		t.ix.Remove(p)
		t.dead++
	}
	t.compact()
	return deactivated
}

// revalidate sweeps the absent pool and activates every path that is
// usable under current link health and drain marks.
func (t *Tracker) revalidate() []routing.Path {
	var out []routing.Path
	for i, p := range t.ix.Paths() {
		if p == nil || t.active[i] || !t.Usable(p) {
			continue
		}
		t.active[i] = true
		out = append(out, p)
	}
	return out
}

// compact re-slots the tracked paths once forgotten slots dominate.
func (t *Tracker) compact() {
	if t.dead <= len(t.active)/2 || t.dead == 0 {
		return
	}
	n := t.ix.Len()
	old, oldActive := t.ix.Paths(), t.active
	t.ix, t.active, t.dead = routing.PathIndex{}, make([]bool, 0, n), 0
	t.ix.Reserve(n)
	for i, p := range old {
		if p != nil {
			t.track(p, oldActive[i])
		}
	}
}

func traverses(p routing.Path, a, b topology.NodeID) bool {
	for i := 1; i < len(p); i++ {
		if (p[i-1] == a && p[i] == b) || (p[i-1] == b && p[i] == a) {
			return true
		}
	}
	return false
}

func visits(p routing.Path, n topology.NodeID) bool {
	for _, x := range p {
		if x == n {
			return true
		}
	}
	return false
}
