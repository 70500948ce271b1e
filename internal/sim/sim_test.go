package sim

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/paper"
	"repro/internal/routing"
	"repro/internal/topology"
)

func testbedNet(t *testing.T, discipline routing.Discipline) (*topology.Clos, *routing.Tables, *Network) {
	t.Helper()
	c := paper.Testbed()
	tb := routing.ComputeToHosts(c.Graph, discipline)
	n := New(c.Graph, tb, DefaultConfig())
	return c, tb, n
}

func TestSingleFlowLineRate(t *testing.T) {
	c, _, n := testbedNet(t, routing.UpDown)
	g := c.Graph
	f := n.AddFlow(FlowSpec{Name: "f", Src: g.MustLookup("H1"), Dst: g.MustLookup("H9")})
	n.Run(10 * time.Millisecond)

	if d := n.Drops(); d.Total() != 0 {
		t.Fatalf("drops: %+v", d)
	}
	// Sustained rate should be close to 40 Gbps (serialization only).
	got := f.MeanGbps(2*time.Millisecond, 10*time.Millisecond)
	if got < 38 || got > 41 {
		t.Errorf("mean rate = %.2f Gbps, want ~40", got)
	}
	if n.PauseFrames != 0 {
		t.Errorf("unexpected PFC: %d pauses", n.PauseFrames)
	}
	if f.Received() == 0 || f.sent < f.Received() {
		t.Errorf("sent=%d received=%d", f.sent, f.Received())
	}
	if f.Name() != "f" {
		t.Error("name")
	}
}

func TestIncastIsLosslessUnderPFC(t *testing.T) {
	c, _, n := testbedNet(t, routing.UpDown)
	g := c.Graph
	// Two senders behind different ToRs converge on H1: the H1 link is
	// the bottleneck, PFC must backpressure both without loss.
	f1 := n.AddFlow(FlowSpec{Name: "a", Src: g.MustLookup("H5"), Dst: g.MustLookup("H1")})
	f2 := n.AddFlow(FlowSpec{Name: "b", Src: g.MustLookup("H9"), Dst: g.MustLookup("H1")})
	n.Run(10 * time.Millisecond)

	if d := n.Drops(); d.Total() != 0 {
		t.Fatalf("lossless violated: %+v", d)
	}
	if n.PauseFrames == 0 {
		t.Fatal("expected PFC pauses under incast")
	}
	if n.ResumeFrames == 0 {
		t.Fatal("expected resumes")
	}
	sum := f1.MeanGbps(2*time.Millisecond, 10*time.Millisecond) +
		f2.MeanGbps(2*time.Millisecond, 10*time.Millisecond)
	if sum < 36 || sum > 41 {
		t.Errorf("aggregate = %.2f Gbps, want ~40 (bottleneck)", sum)
	}
	if m := maxIngress(n); m > DefaultConfig().PFC.XoffThreshold+DefaultConfig().PFC.Headroom {
		t.Errorf("headroom exceeded: %d", m)
	}
	if n.Deadlocked() {
		t.Error("incast must not deadlock")
	}
}

// forceFig3Routes pins the two 1-bounce paths of Figure 3 into the
// tables: green H9(T3) -> H1(T1) via S2,L1(bounce),S1,L2; blue H2(T1) ->
// H13(T4) via L1,S1,L3(bounce),S2,L4.
func forceFig3Routes(c *topology.Clos, tb *routing.Tables) {
	g := c.Graph
	n := func(s string) topology.NodeID { return g.MustLookup(s) }
	h1, h13 := n("H1"), n("H13")
	for _, hop := range [][2]topology.NodeID{
		{n("T3"), n("L3")}, {n("L3"), n("S2")}, {n("S2"), n("L1")},
		{n("L1"), n("S1")}, {n("S1"), n("L2")}, {n("L2"), n("T1")},
	} {
		tb.OverrideNextNode(hop[0], h1, hop[1])
	}
	for _, hop := range [][2]topology.NodeID{
		{n("T1"), n("L1")}, {n("L1"), n("S1")}, {n("S1"), n("L3")},
		{n("L3"), n("S2")}, {n("S2"), n("L4")}, {n("L4"), n("T4")},
	} {
		tb.OverrideNextNode(hop[0], h13, hop[1])
	}
}

func TestFigure3DeadlockWithoutTagger(t *testing.T) {
	c, tb, n := testbedNet(t, routing.UpDown)
	g := c.Graph
	forceFig3Routes(c, tb)
	green := n.AddFlow(FlowSpec{Name: "green", Src: g.MustLookup("H9"), Dst: g.MustLookup("H1")})
	blue := n.AddFlow(FlowSpec{Name: "blue", Src: g.MustLookup("H2"), Dst: g.MustLookup("H13"),
		Start: time.Millisecond})
	n.Run(20 * time.Millisecond)

	if !n.Deadlocked() {
		t.Fatal("expected deadlock from the Figure 3 CBD")
	}
	// Once deadlocked, late-window delivery is zero for both flows.
	if r := green.MeanGbps(15*time.Millisecond, 20*time.Millisecond); r > 0.01 {
		t.Errorf("green still flowing at %.2f Gbps", r)
	}
	if r := blue.MeanGbps(15*time.Millisecond, 20*time.Millisecond); r > 0.01 {
		t.Errorf("blue still flowing at %.2f Gbps", r)
	}
	// Lossless stays lossless even while deadlocked.
	if d := n.Drops(); d.LossyOverflow+d.HeadroomViolation != 0 {
		t.Errorf("drops: %+v", d)
	}
	if cyc := n.DetectDeadlock(); len(cyc) < 2 {
		t.Errorf("cycle too short: %v", cyc)
	} else if DeadlockString(cyc) == "" {
		t.Error("empty cycle description")
	}
}

func TestFigure3NoDeadlockWithTagger(t *testing.T) {
	c, tb, n := testbedNet(t, routing.UpDown)
	g := c.Graph
	forceFig3Routes(c, tb)
	n.InstallTagger(core.ClosRules(g, 1, 1))
	green := n.AddFlow(FlowSpec{Name: "green", Src: g.MustLookup("H9"), Dst: g.MustLookup("H1")})
	blue := n.AddFlow(FlowSpec{Name: "blue", Src: g.MustLookup("H2"), Dst: g.MustLookup("H13"),
		Start: time.Millisecond})
	n.Run(20 * time.Millisecond)

	if n.Deadlocked() {
		t.Fatalf("deadlock under Tagger: %v", n.DetectDeadlock())
	}
	// Both flows keep making progress in the late window. They share the
	// L3->S2 link, so each gets about half of it.
	rg := green.MeanGbps(15*time.Millisecond, 20*time.Millisecond)
	rb := blue.MeanGbps(15*time.Millisecond, 20*time.Millisecond)
	if rg < 10 {
		t.Errorf("green rate = %.2f Gbps, want > 10", rg)
	}
	if rb < 10 {
		t.Errorf("blue rate = %.2f Gbps, want > 10", rb)
	}
	// 1-bounce paths stay within the lossless budget: no drops at all.
	if d := n.Drops(); d.Total() != 0 {
		t.Errorf("drops: %+v", d)
	}
}

func TestRoutingLoopWithTagger(t *testing.T) {
	// Figure 11: F2 is forced into a T1<->L1 loop; with Tagger the loop
	// traffic demotes to lossy and F1 (sharing T1-L1) keeps flowing.
	c, tb, n := testbedNet(t, routing.UpDown)
	g := c.Graph
	nn := func(s string) topology.NodeID { return g.MustLookup(s) }
	n.InstallTagger(core.ClosRules(g, 1, 1))
	f1 := n.AddFlow(FlowSpec{Name: "F1", Src: nn("H1"), Dst: nn("H5")})
	f2 := n.AddFlow(FlowSpec{Name: "F2", Src: nn("H2"), Dst: nn("H6")})
	n.At(5*time.Millisecond, func() {
		// Bad route: L1 sends H6-bound traffic back down to T1, and T1
		// sends it back up to L1.
		tb.OverrideNextNode(nn("T1"), nn("H6"), nn("L1"))
		tb.OverrideNextNode(nn("L1"), nn("H6"), nn("T1"))
	})
	n.Run(20 * time.Millisecond)

	if n.Deadlocked() {
		t.Fatalf("deadlock under Tagger with routing loop: %v", n.DetectDeadlock())
	}
	// F1 keeps flowing after the loop is installed.
	if r := f1.MeanGbps(15*time.Millisecond, 20*time.Millisecond); r < 5 {
		t.Errorf("F1 rate = %.2f Gbps, want > 5", r)
	}
	// F2 delivers nothing after the loop; its packets die by TTL or in
	// the lossy queue.
	if r := f2.MeanGbps(10*time.Millisecond, 20*time.Millisecond); r > 0.01 {
		t.Errorf("F2 still delivering %.2f Gbps", r)
	}
	d := n.Drops()
	if d.TTLExpired+d.LossyOverflow == 0 {
		t.Error("expected loop traffic to die by TTL/lossy overflow")
	}
	if d.HeadroomViolation != 0 {
		t.Errorf("lossless drops: %+v", d)
	}
}

func TestRoutingLoopWithoutTaggerDeadlocks(t *testing.T) {
	c, tb, n := testbedNet(t, routing.UpDown)
	g := c.Graph
	nn := func(s string) topology.NodeID { return g.MustLookup(s) }
	f1 := n.AddFlow(FlowSpec{Name: "F1", Src: nn("H1"), Dst: nn("H5")})
	_ = f1
	n.AddFlow(FlowSpec{Name: "F2", Src: nn("H2"), Dst: nn("H6")})
	n.At(5*time.Millisecond, func() {
		tb.OverrideNextNode(nn("T1"), nn("H6"), nn("L1"))
		tb.OverrideNextNode(nn("L1"), nn("H6"), nn("T1"))
	})
	n.Run(25 * time.Millisecond)

	if !n.Deadlocked() {
		t.Fatal("expected deadlock from routing loop without Tagger")
	}
	// The PAUSE propagates to F1 as well: everything stops.
	if r := f1.MeanGbps(20*time.Millisecond, 25*time.Millisecond); r > 0.01 {
		t.Errorf("F1 still flowing at %.2f Gbps under deadlock", r)
	}
}

// fig8Scenario drives a bounced flow (whose tag transitions 1 -> 2 at L1)
// into a congested destination so that a PFC PAUSE for priority 2 must
// reach back through the bounce switch: green (H9 -> H1) bounces at L1
// and exits via S1 > L2 > T1 at full rate, while a competing priority-1
// flow (H5 -> H1) congests T1 -> H1.
func fig8Scenario(t *testing.T, legacy bool) *Network {
	t.Helper()
	n := fig8Setup(t, legacy)
	n.Run(20 * time.Millisecond)
	return n
}

// fig8Setup builds the Figure 8 scenario without running it, so tests can
// attach observers (e.g. a watchdog) before the clock starts.
func fig8Setup(t *testing.T, legacy bool) *Network {
	t.Helper()
	c, tb, n := testbedNet(t, routing.UpDown)
	g := c.Graph
	nn := func(s string) topology.NodeID { return g.MustLookup(s) }
	h1 := nn("H1")
	for _, hop := range [][2]topology.NodeID{
		{nn("T3"), nn("L3")}, {nn("L3"), nn("S2")}, {nn("S2"), nn("L1")},
		{nn("L1"), nn("S1")}, {nn("S1"), nn("L2")}, {nn("L2"), nn("T1")},
		// Keep the competing flow out of the bounce detour: destination
		// overrides apply to all H1-bound traffic, so pin T2's uplink to
		// L2, whose override (-> T1) is the normal down path.
		{nn("T2"), nn("L2")},
	} {
		tb.OverrideNextNode(hop[0], h1, hop[1])
	}
	n.InstallTagger(core.ClosRules(g, 1, 1))
	for id := range n.pl {
		n.pl[id].LegacyEgressByOldTag = legacy
	}
	n.AddFlow(FlowSpec{Name: "green", Src: nn("H9"), Dst: h1})
	n.AddFlow(FlowSpec{Name: "comp", Src: nn("H5"), Dst: h1, Start: time.Millisecond})
	return n
}

func TestPriorityTransitionLegacyDropsLosslessTraffic(t *testing.T) {
	// Figure 8a: with the egress queue chosen by the OLD tag, the PAUSE
	// for the new priority cannot stop the queue the packets actually sit
	// in, and the downstream ingress blows through its headroom.
	n := fig8Scenario(t, true)
	if n.drops.HeadroomViolation == 0 {
		t.Error("legacy egress mapping should lose lossless packets (Fig 8a)")
	}
}

func TestPriorityTransitionCorrectIsLossless(t *testing.T) {
	// Figure 8b: the same scenario with egress queueing by the NEW tag
	// loses nothing.
	n := fig8Scenario(t, false)
	if d := n.Drops(); d.HeadroomViolation != 0 || d.LossyOverflow != 0 {
		t.Errorf("correct pipeline dropped lossless traffic: %+v", d)
	}
}

func TestSeriesAndStats(t *testing.T) {
	c, _, n := testbedNet(t, routing.UpDown)
	g := c.Graph
	f := n.AddFlow(FlowSpec{Name: "f", Src: g.MustLookup("H1"), Dst: g.MustLookup("H9"),
		Start: 2 * time.Millisecond, Stop: 6 * time.Millisecond})
	n.Run(10 * time.Millisecond)
	s := f.Series(10 * time.Millisecond)
	if len(s) != 10 {
		t.Fatalf("series length = %d, want 10", len(s))
	}
	if s[0].Gbps != 0 || s[1].Gbps != 0 {
		t.Error("flow should be idle before start")
	}
	if s[3].Gbps < 30 {
		t.Errorf("active bucket = %.2f Gbps", s[3].Gbps)
	}
	if s[8].Gbps > 1 {
		t.Errorf("flow should stop: %.2f", s[8].Gbps)
	}
	if f.MeanGbps(5*time.Millisecond, 5*time.Millisecond) != 0 {
		t.Error("empty window mean")
	}
	if len(n.flows) != 1 {
		t.Error("Flows()")
	}
}

func TestRateLimitedFlow(t *testing.T) {
	c, _, n := testbedNet(t, routing.UpDown)
	g := c.Graph
	f := n.AddFlow(FlowSpec{Name: "f", Src: g.MustLookup("H1"), Dst: g.MustLookup("H9"),
		RateBps: 10_000_000_000})
	n.Run(10 * time.Millisecond)
	got := f.MeanGbps(2*time.Millisecond, 10*time.Millisecond)
	if got < 9 || got > 11 {
		t.Errorf("rate-limited mean = %.2f Gbps, want ~10", got)
	}
}

func TestAddFlowValidation(t *testing.T) {
	c, _, n := testbedNet(t, routing.UpDown)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for switch endpoint")
		}
	}()
	n.AddFlow(FlowSpec{Name: "bad", Src: c.ToRs[0], Dst: c.Hosts[0]})
}

func TestMultiClassStamps(t *testing.T) {
	// A class-2 flow (StartTag 2) rides priority 2 end to end on an
	// up-down path.
	c, _, n := testbedNet(t, routing.UpDown)
	g := c.Graph
	n.InstallTagger(core.ClosRules(g, 1, 2)) // tags 1..3
	f := n.AddFlow(FlowSpec{Name: "c2", Src: g.MustLookup("H1"), Dst: g.MustLookup("H9"), StartTag: 2})
	n.Run(5 * time.Millisecond)
	if d := n.Drops(); d.Total() != 0 {
		t.Fatalf("drops: %+v", d)
	}
	if f.Received() == 0 {
		t.Fatal("class-2 flow received nothing")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, int64, int64) {
		c, tb, n := testbedNet(t, routing.UpDown)
		g := c.Graph
		forceFig3Routes(c, tb)
		n.InstallTagger(core.ClosRules(g, 1, 1))
		a := n.AddFlow(FlowSpec{Name: "green", Src: g.MustLookup("H9"), Dst: g.MustLookup("H1")})
		b := n.AddFlow(FlowSpec{Name: "blue", Src: g.MustLookup("H2"), Dst: g.MustLookup("H13"),
			Start: time.Millisecond})
		n.Run(8 * time.Millisecond)
		return a.Received(), b.Received(), n.PauseFrames
	}
	a1, b1, p1 := run()
	a2, b2, p2 := run()
	if a1 != a2 || b1 != b2 || p1 != p2 {
		t.Fatalf("non-deterministic: (%d,%d,%d) vs (%d,%d,%d)", a1, b1, p1, a2, b2, p2)
	}
}

// maxIngress returns the fabric-wide high-water mark of lossless ingress
// occupancy.
func maxIngress(n *Network) int64 {
	var m int64
	for i := range n.nodes {
		for p := range n.nodes[i].ports {
			m = max(m, n.nodes[i].ports[p].maxInBytes)
		}
	}
	return m
}
