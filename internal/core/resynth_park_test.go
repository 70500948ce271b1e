package core

import (
	"reflect"
	"testing"

	"repro/internal/elp"
	"repro/internal/routing"
	"repro/internal/topology"
)

// parkClos is the fabric of the parking tests: 2 pods of 2 ToRs and 2
// leaves under 2 spines, with the one-bounce ToR ELP.
func parkClos(t *testing.T) (*topology.Graph, *elp.Set) {
	t.Helper()
	cl, err := topology.NewClos(topology.ClosConfig{Pods: 2, ToRsPerPod: 2, LeafsPerPod: 2, Spines: 2})
	if err != nil {
		t.Fatal(err)
	}
	return cl.Graph, elp.KBounce(cl.Graph, cl.ToRs, 1, nil)
}

// sameAsScratch compares r's system with Synthesize on r's own path list:
// rules and the runtime graph's vertices and edges.
func sameAsScratch(t *testing.T, g *topology.Graph, r *Resynth, when string) {
	t.Helper()
	ref, err := Synthesize(g, r.Paths(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys := r.System()
	if !reflect.DeepEqual(ref.Rules.Rules(), sys.Rules.Rules()) {
		t.Fatalf("%s: rules differ from scratch", when)
	}
	if !reflect.DeepEqual(ref.Runtime.Nodes(), sys.Runtime.Nodes()) || !reflect.DeepEqual(ref.Runtime.Edges(), sys.Runtime.Edges()) {
		t.Fatalf("%s: runtime graph differs from scratch", when)
	}
}

// TestResynthParksThroughOutage takes more than half the ELP out (two
// leaf drains plus four links) and brings it back. Parked slots must
// outlive the outage — the slot count stays at the universe and revival
// reuses each slot's metadata rather than building new — and with link
// and drain churn only, System().ELP must equal the tracker's active
// list element for element after every event. Compacting parked slots
// (the old policy once they were a majority) re-slots revived paths at
// the end, which breaks the last property.
func TestResynthParksThroughOutage(t *testing.T) {
	g, set := parkClos(t)
	r, err := NewResynth(g, set.Paths(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := elp.NewTracker(g, set)
	universe := len(r.list)
	meta := make([]*topology.PortID, universe)
	for i := range r.list {
		meta[i] = &r.list[i].pids[0]
	}

	n := g.MustLookup
	type step struct {
		name  string
		delta func() (added, removed []routing.Path)
	}
	down := func(a, b string) step {
		return step{"down " + a + "-" + b, func() ([]routing.Path, []routing.Path) {
			g.FailLink(n(a), n(b))
			return nil, tr.LinkDown(n(a), n(b))
		}}
	}
	up := func(a, b string) step {
		return step{"up " + a + "-" + b, func() ([]routing.Path, []routing.Path) {
			g.RestoreLink(n(a), n(b))
			return tr.LinkUp(n(a), n(b)), nil
		}}
	}
	drain := func(sw string) step {
		return step{"drain " + sw, func() ([]routing.Path, []routing.Path) { return nil, tr.Drain(n(sw)) }}
	}
	undrain := func(sw string) step {
		return step{"undrain " + sw, func() ([]routing.Path, []routing.Path) { return tr.Undrain(n(sw)), nil }}
	}
	outage := []step{drain("L1"), down("T3", "L4"), drain("L3"), down("L2", "S1"), down("T2", "L2"), down("L4", "S2")}
	recovery := []step{up("L2", "S1"), undrain("L1"), up("T3", "L4"), undrain("L3"), up("T2", "L2"), up("L4", "S2")}

	run := func(s step) {
		t.Helper()
		added, removed := s.delta()
		if _, err := r.Apply(added, removed); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if len(r.list) != universe {
			t.Fatalf("%s: %d slots, universe is %d", s.name, len(r.list), universe)
		}
		if got, want := r.System().ELP, tr.Active(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: System().ELP (%d paths) is not the tracker's active list (%d) in order", s.name, len(got), len(want))
		}
		sameAsScratch(t, g, r, s.name)
	}
	for _, s := range outage {
		run(s)
	}
	if r.parked*2 <= universe {
		t.Fatalf("outage parked %d of %d paths; the test needs a majority", r.parked, universe)
	}
	for _, s := range recovery {
		run(s)
	}
	if r.parked != 0 || len(r.Paths()) != universe {
		t.Fatalf("after recovery %d parked, %d live of %d", r.parked, len(r.Paths()), universe)
	}
	for i := range r.list {
		if &r.list[i].pids[0] != meta[i] {
			t.Fatalf("slot %d was rebuilt on revival", i)
		}
	}
}
