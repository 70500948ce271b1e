package elp

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/chaos"
	"repro/internal/routing"
	"repro/internal/topology"
)

// activeCount counts the tracker's active paths; absentCount the tracked
// paths that are not usable.
func activeCount(tr *Tracker) int {
	n := 0
	for _, a := range tr.active {
		if a {
			n++
		}
	}
	return n
}

func absentCount(tr *Tracker) int { return tr.ix.Len() - activeCount(tr) }

// churnGraph builds a tiny two-tier fabric for tracker tests:
// T1, T2 each connect to L1 and L2.
func churnGraph(t *testing.T) (*topology.Graph, *Set) {
	t.Helper()
	cl, err := topology.NewClos(topology.ClosConfig{
		Pods: 2, ToRsPerPod: 1, LeafsPerPod: 1, Spines: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl.Graph, KBounce(cl.Graph, cl.ToRs, 1, nil)
}

func TestTrackerLinkDownUp(t *testing.T) {
	g, set := churnGraph(t)
	tr := NewTracker(g, set)
	if activeCount(tr) != set.Len() || absentCount(tr) != 0 {
		t.Fatalf("fresh tracker: active=%d absent=%d, want %d/0", activeCount(tr), absentCount(tr), set.Len())
	}
	a, b := g.MustLookup("T1"), g.MustLookup("L1")
	g.FailLink(a, b)
	removed := tr.LinkDown(a, b)
	if len(removed) == 0 {
		t.Fatal("no paths removed for a link every T1-via-L1 path crosses")
	}
	for _, p := range removed {
		if tr.Usable(p) {
			t.Fatalf("removed path %s still usable", p.String(g))
		}
	}
	if activeCount(tr)+absentCount(tr) != set.Len() {
		t.Fatal("paths leaked during link-down")
	}
	g.RestoreLink(a, b)
	added := tr.LinkUp(a, b)
	if len(added) != len(removed) {
		t.Fatalf("recovery restored %d of %d paths", len(added), len(removed))
	}
	if activeCount(tr) != set.Len() || absentCount(tr) != 0 {
		t.Fatalf("after recovery: active=%d absent=%d", activeCount(tr), absentCount(tr))
	}
}

// TestTrackerOverlappingFailures is the global-pool property: a path
// knocked out by link X that also crosses failed link Y must stay absent
// when X recovers, and come back only when the last obstruction clears.
func TestTrackerOverlappingFailures(t *testing.T) {
	g, set := churnGraph(t)
	tr := NewTracker(g, set)
	t1, l1 := g.MustLookup("T1"), g.MustLookup("L1")
	s1, l2 := g.MustLookup("S1"), g.MustLookup("L2")

	// Find a tracked path crossing both T1-L1 and S1-L2
	// (T1 > L1 > S1 > L2 > T2).
	var victim routing.Path
	for _, p := range tr.Active() {
		if len(p) == 5 && p[0] == t1 && p[2] == s1 {
			victim = p
		}
	}
	if victim == nil {
		t.Fatal("no T1>L1>S1>L2>T2 path in the ELP")
	}

	g.FailLink(t1, l1)
	tr.LinkDown(t1, l1)
	g.FailLink(s1, l2)
	tr.LinkDown(s1, l2)

	// First failure recovers; the victim still crosses the second.
	g.RestoreLink(t1, l1)
	for _, p := range tr.LinkUp(t1, l1) {
		if p.Key() == victim.Key() {
			t.Fatal("path reactivated while its second failed link is still down")
		}
	}
	if tr.Usable(victim) {
		t.Fatal("victim reported usable with S1-L2 down")
	}
	g.RestoreLink(s1, l2)
	restored := false
	for _, p := range tr.LinkUp(s1, l2) {
		if p.Key() == victim.Key() {
			restored = true
		}
	}
	if !restored {
		t.Fatal("victim not restored after the last obstruction cleared")
	}
}

func TestTrackerDrainUndrain(t *testing.T) {
	g, set := churnGraph(t)
	tr := NewTracker(g, set)
	l1 := g.MustLookup("L1")
	removed := tr.Drain(l1)
	if len(removed) == 0 {
		t.Fatal("draining L1 removed nothing")
	}
	if !tr.Drained(l1) {
		t.Fatal("drain mark not recorded")
	}
	// Draining again is a no-op.
	if again := tr.Drain(l1); len(again) != 0 {
		t.Fatalf("second drain removed %d paths", len(again))
	}
	// A drained node blocks reactivation even when links are healthy.
	for _, p := range removed {
		if tr.Usable(p) {
			t.Fatalf("path %s through drained switch reported usable", p.String(g))
		}
	}
	added := tr.Undrain(l1)
	if len(added) != len(removed) {
		t.Fatalf("undrain restored %d of %d paths", len(added), len(removed))
	}
	if tr.Undrain(l1) != nil {
		t.Fatal("undraining a healthy switch restored paths")
	}
}

// TestTrackerDrainLinkInteraction: a path parked by a drain that also
// crosses a failed link stays absent through the undrain.
func TestTrackerDrainLinkInteraction(t *testing.T) {
	g, set := churnGraph(t)
	tr := NewTracker(g, set)
	t1, l1 := g.MustLookup("T1"), g.MustLookup("L1")

	tr.Drain(l1)
	g.FailLink(t1, l1)
	tr.LinkDown(t1, l1) // no-op: the drain already parked those paths

	for _, p := range tr.Undrain(l1) {
		for i := 1; i < len(p); i++ {
			if (p[i-1] == t1 && p[i] == l1) || (p[i-1] == l1 && p[i] == t1) {
				t.Fatalf("path %s crossing the failed link reactivated on undrain", p.String(g))
			}
		}
	}
	g.RestoreLink(t1, l1)
	tr.LinkUp(t1, l1)
	if activeCount(tr) != set.Len() || absentCount(tr) != 0 {
		t.Fatalf("full recovery incomplete: active=%d absent=%d want %d/0",
			activeCount(tr), absentCount(tr), set.Len())
	}
}

// TestTrackerAddRemove: AddPaths ignores tracked paths, parks a new path
// over a down link absent, and the link's recovery restores it.
func TestTrackerAddRemove(t *testing.T) {
	g, set := churnGraph(t)
	tr := NewTracker(g, set)
	base := activeCount(tr)

	// Re-adding known paths is a no-op.
	if added := tr.AddPaths(set.Paths()); len(added) != 0 {
		t.Fatalf("re-adding tracked paths activated %d", len(added))
	}

	// A new path over a down link parks absent immediately. Leaf-to-leaf
	// paths are valid in the graph but outside the ToR-endpoint ELP, so
	// L1 > S1 > L2 is guaranteed untracked.
	l1, s1, l2 := g.MustLookup("L1"), g.MustLookup("S1"), g.MustLookup("L2")
	knocked := tr.LinkDown(s1, l2)
	fresh := routing.Path{l1, s1, l2}
	if _, ok := tr.ix.Find(fresh); ok {
		t.Fatal("test path already tracked; pick another")
	}
	if added := tr.AddPaths([]routing.Path{fresh}); len(added) != 0 {
		t.Fatalf("path over a down link activated: %v", added)
	}
	if absentCount(tr) != len(knocked)+1 {
		t.Fatalf("%d absent, want the %d knocked-out paths and the new one", absentCount(tr), len(knocked))
	}
	restored := tr.LinkUp(s1, l2)
	if len(restored) != len(knocked)+1 || restored[len(restored)-1].Key() != fresh.Key() {
		t.Fatalf("parked path not restored (last slot): %v", restored)
	}
	if activeCount(tr) != base+1 || absentCount(tr) != 0 {
		t.Fatalf("active=%d absent=%d after restore, want %d/0", activeCount(tr), absentCount(tr), base+1)
	}
}

// rescanTracker is the tracker as it was before obstruction counting,
// kept as the oracle of TestTrackerMatchesRescan: every recovery
// re-validates the whole absent pool, every knock-out scans every path.
// Like the tracker, it keeps its own link marks and never reads the
// graph's link health.
type rescanTracker struct {
	g       *topology.Graph
	ix      routing.PathIndex // tracked paths by slot
	active  []bool            // per slot
	down    map[topology.LinkID]bool
	drained map[topology.NodeID]bool
}

func newRescanTracker(g *topology.Graph, s *Set) *rescanTracker {
	t := &rescanTracker{g: g, down: make(map[topology.LinkID]bool), drained: make(map[topology.NodeID]bool)}
	t.ix.Reserve(s.Len())
	for _, p := range s.Paths() {
		t.track(p, true)
	}
	return t
}

func (t *rescanTracker) track(p routing.Path, active bool) {
	if _, added := t.ix.Add(p); added {
		t.active = append(t.active, active)
	}
}

func (t *rescanTracker) Active() []routing.Path {
	out := make([]routing.Path, 0, t.ix.Len())
	for i, p := range t.ix.Paths() {
		if t.active[i] {
			out = append(out, p)
		}
	}
	return out
}

func (t *rescanTracker) Usable(p routing.Path) bool {
	for _, n := range p {
		if t.drained[n] {
			return false
		}
	}
	for i := 1; i < len(p); i++ {
		l := t.g.LinkBetween(p[i-1], p[i])
		if l == nil || t.down[l.ID] {
			return false
		}
	}
	return true
}

func (t *rescanTracker) LinkDown(a, b topology.NodeID) []routing.Path {
	if l := t.g.LinkBetween(a, b); l != nil {
		t.down[l.ID] = true
	}
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

func (t *rescanTracker) LinkUp(a, b topology.NodeID) []routing.Path {
	if l := t.g.LinkBetween(a, b); l != nil {
		delete(t.down, l.ID)
	}
	return t.revalidate()
}

func (t *rescanTracker) Drain(sw topology.NodeID) []routing.Path {
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

func (t *rescanTracker) Undrain(sw topology.NodeID) []routing.Path {
	if !t.drained[sw] {
		return nil
	}
	delete(t.drained, sw)
	return t.revalidate()
}

func (t *rescanTracker) AddPaths(paths []routing.Path) (activated []routing.Path) {
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

func (t *rescanTracker) revalidate() []routing.Path {
	var out []routing.Path
	for i, p := range t.ix.Paths() {
		if t.active[i] || !t.Usable(p) {
			continue
		}
		t.active[i] = true
		out = append(out, p)
	}
	return out
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

// trackerPair drives the tracker and the rescan oracle through the same
// calls on one graph and fails on the first delta that differs.
type trackerPair struct {
	t    *testing.T
	name string
	g    *topology.Graph
	got  *Tracker
	want *rescanTracker
	step int
}

func (tp *trackerPair) same(op string, got, want []routing.Path) {
	tp.t.Helper()
	tp.step++
	if len(got) != len(want) {
		tp.t.Fatalf("%s step %d %s: %d paths moved, oracle %d", tp.name, tp.step, op, len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			tp.t.Fatalf("%s step %d %s: delta[%d] = %s, oracle %s", tp.name, tp.step, op, i, got[i].String(tp.g), want[i].String(tp.g))
		}
	}
	a, b := tp.got.Active(), tp.want.Active()
	if len(a) != len(b) {
		tp.t.Fatalf("%s step %d %s: %d active, oracle %d", tp.name, tp.step, op, len(a), len(b))
	}
	for i := range b {
		if !a[i].Equal(b[i]) {
			tp.t.Fatalf("%s step %d %s: active[%d] = %s, oracle %s", tp.name, tp.step, op, i, a[i].String(tp.g), b[i].String(tp.g))
		}
	}
}

func (tp *trackerPair) linkDown(a, b topology.NodeID) {
	tp.t.Helper()
	tp.same("link-down", tp.got.LinkDown(a, b), tp.want.LinkDown(a, b))
}

func (tp *trackerPair) linkUp(a, b topology.NodeID) {
	tp.t.Helper()
	tp.same("link-up", tp.got.LinkUp(a, b), tp.want.LinkUp(a, b))
}

func (tp *trackerPair) drain(sw topology.NodeID) {
	tp.t.Helper()
	tp.same("drain", tp.got.Drain(sw), tp.want.Drain(sw))
}

func (tp *trackerPair) undrain(sw topology.NodeID) {
	tp.t.Helper()
	tp.same("undrain", tp.got.Undrain(sw), tp.want.Undrain(sw))
}

func (tp *trackerPair) addPaths(ps []routing.Path) {
	tp.t.Helper()
	tp.same("add-paths", tp.got.AddPaths(ps), tp.want.AddPaths(ps))
}

// TestTrackerMatchesRescan drives the obstruction-counting tracker and
// the rescan oracle through seeded churn sequences — Clos with pod adds
// and Jellyfish — with extra calls mixed in: duplicate and no-op events,
// drains stacked on down links, AddPaths of paths over down links and
// drained switches, link health flipped in the graph (invisible to the
// tracker, whose marks alone decide) and link-down events the graph never
// saw. Every returned delta must equal the oracle's, in order, and so
// must the active list.
func TestTrackerMatchesRescan(t *testing.T) {
	type fabric struct {
		name   string
		build  func(seed int64) (*topology.Graph, *topology.Clos)
		policy func(g *topology.Graph, cl *topology.Clos) *Set
		extra  func(g *topology.Graph, cl *topology.Clos) []routing.Path // paths outside the policy
		pods   int
	}
	fabrics := []fabric{
		{
			name: "clos",
			build: func(int64) (*topology.Graph, *topology.Clos) {
				cl, err := topology.NewClos(topology.ClosConfig{Pods: 2, ToRsPerPod: 2, LeafsPerPod: 2, Spines: 2})
				if err != nil {
					t.Fatal(err)
				}
				return cl.Graph, cl
			},
			policy: func(g *topology.Graph, cl *topology.Clos) *Set { return KBounce(g, cl.ToRs, 1, nil) },
			extra: func(g *topology.Graph, cl *topology.Clos) []routing.Path {
				return KBounce(g, append(append([]topology.NodeID(nil), cl.ToRs...), cl.Leaves...), 2, nil).Paths()
			},
			pods: 2,
		},
		{
			name: "jellyfish",
			build: func(seed int64) (*topology.Graph, *topology.Clos) {
				j, err := topology.NewJellyfish(topology.JellyfishConfig{Switches: 9, Ports: 5, NetPorts: 3, Seed: seed, Attempts: 64})
				if err != nil {
					t.Fatal(err)
				}
				return j.Graph, nil
			},
			policy: func(g *topology.Graph, _ *topology.Clos) *Set {
				return ShortestAllN(g, g.Switches(), 1)
			},
			extra: func(g *topology.Graph, _ *topology.Clos) []routing.Path {
				return DeviationPaths(g, nil, g.Switches(), 200, 6, 1)
			},
		},
	}
	for _, f := range fabrics {
		for seed := int64(1); seed <= 6; seed++ {
			g, cl := f.build(seed)
			base := f.policy(g, cl)
			tp := &trackerPair{t: t, name: fmt.Sprintf("%s seed %d", f.name, seed), g: g, got: NewTracker(g, base), want: newRescanTracker(g, base)}
			pool := f.extra(g, cl)
			links := g.SwitchLinks()
			events := chaos.GenerateChurn(chaos.ChurnConfig{
				Links: links, Switches: g.SwitchNames(), Events: 60, PodAdds: f.pods,
			}, seed)
			rng := rand.New(rand.NewSource(seed))
			pick := func() []routing.Path {
				var ps []routing.Path
				for range 1 + rng.Intn(6) {
					ps = append(ps, pool[rng.Intn(len(pool))])
				}
				return ps
			}
			for _, ev := range events {
				switch ev.Kind {
				case chaos.ChurnLinkDown:
					a, b := g.MustLookup(ev.A), g.MustLookup(ev.B)
					g.FailLink(a, b)
					tp.linkDown(a, b)
					if rng.Intn(4) == 0 {
						tp.linkDown(a, b) // duplicate
					}
				case chaos.ChurnLinkUp:
					a, b := g.MustLookup(ev.A), g.MustLookup(ev.B)
					g.RestoreLink(a, b)
					tp.linkUp(a, b)
					if rng.Intn(4) == 0 {
						tp.linkUp(b, a) // duplicate, endpoints swapped
					}
				case chaos.ChurnDrain:
					sw := g.MustLookup(ev.Switch)
					tp.drain(sw)
					if rng.Intn(4) == 0 {
						tp.drain(sw)
					}
				case chaos.ChurnUndrain:
					sw := g.MustLookup(ev.Switch)
					tp.undrain(sw)
					if rng.Intn(4) == 0 {
						tp.undrain(sw)
					}
				case chaos.ChurnPodAdd:
					if cl == nil {
						continue
					}
					if err := cl.Expand(1); err != nil {
						t.Fatal(err)
					}
					tp.addPaths(f.policy(g, cl).Paths())
					pool = append(pool, f.extra(g, cl)...)
				}
				// A drain stacked on a down link: drain an endpoint of a
				// down link, down the link again, undrain.
				if fl := g.FailedLinks(); len(fl) > 0 && rng.Intn(5) == 0 {
					l := g.Link(fl[rng.Intn(len(fl))])
					tp.drain(l.A)
					tp.linkDown(l.A, l.B) // overlapping: the drain took its paths already
					tp.undrain(l.A)
				}
				switch rng.Intn(10) {
				case 0: // new paths, some over failed links or drained switches
					tp.addPaths(pick())
				case 1: // an unused draw: it keeps each seed's later draws in place
					pick()
				case 2: // a link flips in the graph with no tracker event: the
					// graph is invisible to the tracker, so an AddPaths
					// across it sees only the tracker's own marks
					p := pool[rng.Intn(len(pool))]
					if _, known := tp.got.ix.Find(p); known || len(p) < 2 {
						break
					}
					i := 1 + rng.Intn(len(p)-1)
					l := g.LinkBetween(p[i-1], p[i])
					l.Failed = !l.Failed
					tp.addPaths([]routing.Path{p})
					l.Failed = !l.Failed
				case 3: // recoveries the generator did not ask for, mostly no-ops
					l := links[0]
					tp.undrain(g.MustLookup(g.SwitchNames()[0]))
					tp.linkUp(g.MustLookup(l[0]), g.MustLookup(l[1]))
				case 4: // a link-down event the graph never saw: the mark
					// alone takes the link's paths out
					l := links[rng.Intn(len(links))]
					tp.linkDown(g.MustLookup(l[0]), g.MustLookup(l[1]))
				case 5: // a hop between switches with no link between them
					sws := g.Switches()
					a, b := sws[rng.Intn(len(sws))], sws[rng.Intn(len(sws))]
					if a == b || g.LinkBetween(a, b) != nil {
						break
					}
					tp.addPaths([]routing.Path{{a, b}})
					tp.linkDown(a, b)
					tp.linkUp(a, b)
				}
			}
			// Heal everything: only paths over missing links stay absent.
			for id := range g.NumLinks() {
				l := g.Link(topology.LinkID(id))
				g.RestoreLink(l.A, l.B)
				tp.linkUp(l.A, l.B)
			}
			for _, n := range g.Switches() {
				tp.undrain(n)
			}
			for i, p := range tp.got.ix.Paths() {
				if !tp.got.active[i] && tp.got.Usable(p) {
					t.Fatalf("%s seed %d: usable path %s still absent after full recovery", f.name, seed, p.String(g))
				}
			}
		}
	}
}
