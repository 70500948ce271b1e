package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/elp"
	"repro/internal/routing"
	"repro/internal/topology"
)

// replayFromScratch is the per-path replay rsReplayer must reproduce, as
// Resynth ran it before replays resumed from a shared prefix: the path
// from the NIC stamp, appending its chain and every consulted key. The
// match ports come from node-pair lookups on p, not from e's port space.
func replayFromScratch(g *topology.Graph, p routing.Path, e *rsPath, rs *Ruleset, chain []uint32, keys []uint64) ([]uint32, []uint64, bool) {
	tag := 1
	for i, pid := range e.pids {
		chain = append(chain, packTagKey(pid, tag))
		if i+2 < len(p) {
			sw := p[i+1]
			in, out := g.PortToPeer(sw, p[i]), g.PortToPeer(sw, p[i+2])
			if k, kok := matchKey(sw, tag, in, out); kok {
				keys = append(keys, k)
			}
			tag = rs.Classify(sw, tag, in, out)
			if tag == LossyTag {
				return chain, keys, false
			}
		}
	}
	return chain, keys, true
}

// TestRsReplayerResumeAdversarial runs path orders chosen to break prefix
// resumption through one rsReplayer and requires every replay's chain,
// keys and verdict to equal a from-scratch replay of the same path: the
// enumeration order, ascending slot order after a shuffle (the order
// Resynth walks), a shuffle, a path with its prefixes and repeats, and a
// path that goes lossy mid-way beside neighbours that share its prefix
// through the lossy switch and past it.
func TestRsReplayerResumeAdversarial(t *testing.T) {
	c, err := topology.NewClos(topology.ClosConfig{Pods: 3, ToRsPerPod: 2, LeafsPerPod: 2, Spines: 2, HostsPerToR: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := c.Graph
	// One-bounce rules over a two-bounce ELP: every two-bounce path goes
	// lossy at its second valley, mid-path.
	rs := ClosRules(g, 1, 1)
	sorted := elp.KBounce(g, c.ToRs, 2, nil).Paths()

	var lossless, lossy routing.Path
	lossyAt := -1
	for _, p := range sorted {
		switch res := rs.Replay(p, 1); {
		case res.Lossless && len(p) > len(lossless):
			lossless = p
		case !res.Lossless && res.DropHop+2 < len(p) && lossy == nil:
			lossy, lossyAt = p, res.DropHop
		}
	}
	var sameFate, otherWay routing.Path
	for _, p := range sorted {
		if lossy == nil || p.Equal(lossy) || len(p) <= lossyAt+1 || !p[:lossyAt+1].Equal(lossy[:lossyAt+1]) {
			continue
		}
		if p[lossyAt+1] == lossy[lossyAt+1] && sameFate == nil {
			sameFate = p
		}
		if p[lossyAt+1] != lossy[lossyAt+1] && otherWay == nil {
			otherWay = p
		}
	}
	if len(lossless) < 5 || sameFate == nil || otherWay == nil {
		t.Fatalf("fixture lacks a long lossless path (%v), a mid-path lossy one (%v) or its neighbours (%v, %v)",
			lossless, lossy, sameFate, otherWay)
	}

	shuffled := append([]routing.Path(nil), sorted...)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	// Ascending slot order of a shuffled admission: slots follow first
	// admission, so a walk sees the shuffled list; half of it, in order,
	// is what a partial revival walks.
	var half []routing.Path
	for i, p := range shuffled {
		if i%2 == 0 {
			half = append(half, p)
		}
	}
	cases := []struct {
		name  string
		paths []routing.Path
	}{
		{"enumeration order", sorted},
		{"every other slot of a shuffled admission", half},
		{"shuffled: no prefix shared", shuffled},
		{"path, its proper prefixes, itself", []routing.Path{
			lossless, lossless[:len(lossless)-1], lossless[:2], lossless[:1], lossless, lossless, lossless[:3], lossless}},
		{"lossy, then paths sharing the lossy prefix", []routing.Path{
			lossy, sameFate, lossy, otherWay, lossy[:lossyAt+1], lossy[:lossyAt+2], lossy, sameFate, lossy[:lossyAt+3]}},
		{"short after long after short", []routing.Path{
			lossless[:2], lossless, lossless[:3], lossy, lossless[:2], lossless}},
	}
	for _, tc := range cases {
		var rp rsReplayer
		rp.reset(rs)
		for i, p := range tc.paths {
			e := rsPath{pids: appendHopPorts(g, p, nil)}
			wantChain, wantKeys, wantOK := replayFromScratch(g, p, &e, rs, nil, nil)
			chain, keys, ok := rp.replay(p, &e)
			if ok != wantOK || !reflect.DeepEqual(append([]uint32{}, chain...), append([]uint32{}, wantChain...)) ||
				!reflect.DeepEqual(append([]uint64{}, keys...), append([]uint64{}, wantKeys...)) {
				t.Fatalf("%s, path %d %s: resumed replay (ok=%v, %d hops, %d keys) differs from scratch (ok=%v, %d hops, %d keys)",
					tc.name, i, p.String(g), ok, len(chain), len(keys), wantOK, len(wantChain), len(wantKeys))
			}
		}
	}
}

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

// TestResynthApplySetForgets: ApplySet forgets the resident paths its new
// set leaves out, live and parked alike, and compaction reclaims their
// slots once they are the majority; Apply alone never forgets.
func TestResynthApplySetForgets(t *testing.T) {
	g, set := parkClos(t)
	all := set.Paths()
	r, err := NewResynth(g, all, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Park two fifths of the ELP, then keep only the first two fifths:
	// parked and live paths alike fall outside the new set.
	f := len(all) / 5
	if _, err := r.Apply(nil, all[f:2*f]); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Apply(nil, all[4*f:]); err != nil {
		t.Fatal(err)
	}
	if len(r.list) != len(all) {
		t.Fatalf("Apply dropped slots: %d of %d", len(r.list), len(all))
	}
	keep := all[:2*f]
	if _, err := r.ApplySet(keep); err != nil {
		t.Fatal(err)
	}
	sameAsScratch(t, g, r, "after ApplySet")
	for _, p := range all[2*f:] {
		if _, ok := r.ix.Find(p); ok {
			t.Fatalf("path %s left out by ApplySet is still resident", p.String(g))
		}
	}
	if got := len(r.Paths()); got != len(keep) {
		t.Fatalf("%d live paths, want %d", got, len(keep))
	}
	if len(r.list) != len(keep) || r.forgotten != 0 {
		t.Fatalf("forgotten majority not compacted: %d slots, %d forgotten", len(r.list), r.forgotten)
	}
	if !reflect.DeepEqual(r.Paths(), keep) {
		t.Fatal("compaction did not keep slot order")
	}
	// Forgotten paths come back as new slots, at the end.
	if _, err := r.ApplySet(all); err != nil {
		t.Fatal(err)
	}
	sameAsScratch(t, g, r, "after re-adding")
	if idx, ok := r.ix.Find(all[len(all)-1]); !ok || idx != len(r.list)-1 {
		t.Fatalf("re-added path at slot %d (resident %v), want the last slot %d", idx, ok, len(r.list)-1)
	}
}
