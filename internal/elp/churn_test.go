package elp

import (
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
)

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
	if tr.ActiveLen() != set.Len() || tr.AbsentLen() != 0 {
		t.Fatalf("fresh tracker: active=%d absent=%d, want %d/0", tr.ActiveLen(), tr.AbsentLen(), set.Len())
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
	if tr.ActiveLen()+tr.AbsentLen() != set.Len() {
		t.Fatal("paths leaked during link-down")
	}
	g.RestoreLink(a, b)
	added := tr.LinkUp(a, b)
	if len(added) != len(removed) {
		t.Fatalf("recovery restored %d of %d paths", len(added), len(removed))
	}
	if tr.ActiveLen() != set.Len() || tr.AbsentLen() != 0 {
		t.Fatalf("after recovery: active=%d absent=%d", tr.ActiveLen(), tr.AbsentLen())
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
	if tr.ActiveLen() != set.Len() || tr.AbsentLen() != 0 {
		t.Fatalf("full recovery incomplete: active=%d absent=%d want %d/0",
			tr.ActiveLen(), tr.AbsentLen(), set.Len())
	}
}

func TestTrackerAddRemove(t *testing.T) {
	g, set := churnGraph(t)
	tr := NewTracker(g, set)
	base := tr.ActiveLen()

	// Re-adding known paths is a no-op.
	if added := tr.AddPaths(set.Paths()); len(added) != 0 {
		t.Fatalf("re-adding tracked paths activated %d", len(added))
	}

	// A new path over a failed link parks absent immediately. Leaf-to-leaf
	// paths are valid in the graph but outside the ToR-endpoint ELP, so
	// L1 > S1 > L2 is guaranteed untracked.
	l1, s1, l2 := g.MustLookup("L1"), g.MustLookup("S1"), g.MustLookup("L2")
	g.FailLink(s1, l2)
	fresh := routing.Path{l1, s1, l2}
	if _, ok := tr.ix.Find(fresh); ok {
		t.Fatal("test path already tracked; pick another")
	}
	tr.Remove([]routing.Path{fresh}) // removing unknown paths is a no-op
	if added := tr.AddPaths([]routing.Path{fresh}); len(added) != 0 {
		t.Fatalf("path over a failed link activated: %v", added)
	}
	if tr.AbsentLen() == 0 {
		t.Fatal("unusable new path not parked")
	}
	g.RestoreLink(s1, l2)
	if restored := tr.LinkUp(s1, l2); len(restored) != 1 || restored[0].Key() != fresh.Key() {
		t.Fatalf("parked path not restored: %v", restored)
	}

	deactivated := tr.Remove([]routing.Path{fresh})
	if len(deactivated) != 1 {
		t.Fatalf("Remove returned %d active paths, want 1", len(deactivated))
	}
	if tr.ActiveLen() != base {
		t.Fatalf("active=%d after remove, want %d", tr.ActiveLen(), base)
	}
}
