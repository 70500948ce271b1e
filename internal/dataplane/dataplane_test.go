package dataplane

import (
	"testing"

	"repro/internal/core"
	"repro/internal/elp"
	"repro/internal/paper"
	"repro/internal/wire"
)

func newFrame(tag, ttl int) []byte {
	return wire.EncodeRoCEv2(&wire.RoCEv2Packet{
		IP:  wire.IPv4{DSCP: uint8(tag), TTL: uint8(ttl), Src: [4]byte{10, 0, 0, 1}, Dst: [4]byte{10, 0, 0, 2}},
		BTH: wire.BTH{Opcode: wire.OpcodeRCWriteOnly},
	})
}

// TestFrameReplayMatchesAbstractReplay is the load-bearing cross-check:
// for every path in the testbed's 1-bounce ELP, pushing a real encoded
// frame through the compiled TCAM dataplane yields exactly the tag
// sequence the abstract ruleset predicts.
func TestFrameReplayMatchesAbstractReplay(t *testing.T) {
	c := paper.Testbed()
	rs := core.ClosRules(c.Graph, 1, 1)
	fab := Compile(c.Graph, rs)
	set := elp.KBounce(c.Graph, c.ToRs, 1, nil)

	for _, p := range set.Paths() {
		want := rs.Replay(p, 1)
		frame := newFrame(1, 64)
		got, err := fab.ForwardFrame(frame, p)
		if err != nil {
			t.Fatalf("path %s: %v", p.String(c.Graph), err)
		}
		if len(got) != len(want.Tags) {
			t.Fatalf("path %s: %d tags vs %d", p.String(c.Graph), len(got), len(want.Tags))
		}
		for i := range got {
			if got[i] != want.Tags[i] {
				t.Fatalf("path %s hop %d: frame tag %d, abstract tag %d",
					p.String(c.Graph), i, got[i], want.Tags[i])
			}
		}
	}
}

func TestFrameReplayGenericSynthesis(t *testing.T) {
	// Same cross-check for the generic Algorithm 1+2 pipeline on Fig 5.
	f := paper.NewFig5()
	sys, err := core.Synthesize(f.Graph, f.ELP.Paths(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fab := Compile(f.Graph, sys.Rules)
	for _, p := range f.ELP.Paths() {
		want := sys.Rules.Replay(p, 1)
		got, err := fab.ForwardFrame(newFrame(1, 64), p)
		if err != nil {
			t.Fatalf("path %s: %v", p.String(f.Graph), err)
		}
		for i := range got {
			if got[i] != want.Tags[i] {
				t.Fatalf("path %s hop %d: %d vs %d", p.String(f.Graph), i, got[i], want.Tags[i])
			}
		}
	}
}

func TestLossySafeguard(t *testing.T) {
	// A frame arriving on a fabric port with a (tag,in,out) no rule
	// covers is demoted to the lossy DSCP — the last TCAM entry.
	c := paper.Testbed()
	g := c.Graph
	rs := core.ClosRules(g, 1, 1)
	fab := Compile(g, rs)
	l1 := g.MustLookup("L1")
	sw := fab.switches[l1]
	inS1 := g.PortToPeer(l1, g.MustLookup("S1"))
	outS2 := g.PortToPeer(l1, g.MustLookup("S2"))

	// Tag 2 bouncing again exceeds the budget: lossy.
	frame := newFrame(2, 64)
	v, err := sw.Process(frame, inS1, outS2)
	if err != nil {
		t.Fatal(err)
	}
	if v.NewTag != core.LossyTag || v.EgressQueue != 0 {
		t.Errorf("verdict: %+v", v)
	}
	// The frame itself now carries the lossy DSCP.
	pkt, err := wire.DecodeRoCEv2(frame)
	if err != nil {
		t.Fatal(err)
	}
	if pkt.Tag() != core.LossyTag {
		t.Errorf("frame DSCP = %d", pkt.Tag())
	}
	// And it can never become lossless again.
	v, err = sw.Process(frame, inS1, g.PortToPeer(l1, g.MustLookup("T1")))
	if err != nil {
		t.Fatal(err)
	}
	if v.NewTag != core.LossyTag || v.IngressQueue != 0 {
		t.Errorf("lossy escape: %+v", v)
	}
	// Not even through a TCAM entry that matches the lossy tag.
	rs.Add(core.Rule{Switch: l1, Tag: core.LossyTag, In: inS1, Out: outS2, NewTag: 1})
	v, err = NewSwitch(l1, rs).Process(newFrame(core.LossyTag, 64), inS1, outS2)
	if err != nil {
		t.Fatal(err)
	}
	if v.NewTag != core.LossyTag || v.EgressQueue != 0 {
		t.Errorf("lossy-tag entry re-promoted the frame: %+v", v)
	}
}

func TestTTLDropInDataplane(t *testing.T) {
	c := paper.Testbed()
	g := c.Graph
	rs := core.ClosRules(g, 1, 1)
	sw := NewSwitch(g.MustLookup("L1"), rs)
	frame := newFrame(1, 1)
	v, err := sw.Process(frame, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Drop || v.DropReason == "" {
		t.Errorf("verdict: %+v", v)
	}
}

func TestMalformedFrameRejected(t *testing.T) {
	c := paper.Testbed()
	rs := core.ClosRules(c.Graph, 1, 1)
	sw := NewSwitch(c.Graph.MustLookup("L1"), rs)
	if _, err := sw.Process([]byte{1, 2, 3}, 0, 1); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestFabricAccounting(t *testing.T) {
	c := paper.Testbed()
	rs := core.ClosRules(c.Graph, 1, 1)
	fab := Compile(c.Graph, rs)
	if fab.TotalEntries() == 0 {
		t.Fatal("no entries compiled")
	}
	if fab.switches[c.Spines[0]] == nil {
		t.Fatal("spine missing")
	}
	// Spines never rewrite upward, so their entries are keep-rules only;
	// compression should make them very few.
	if got := fab.switches[c.Spines[0]].Entries(); got > fab.switches[c.Leaves[0]].Entries() {
		t.Errorf("spine entries %d > leaf %d", got, fab.switches[c.Leaves[0]].Entries())
	}
}
