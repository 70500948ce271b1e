package sim

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/routing"
)

func TestDCQCNReducesPauseFrames(t *testing.T) {
	// The §6 motivation for DCQCN alongside Tagger: congestion control
	// keeps queues below PFC thresholds, drastically reducing PAUSE
	// generation on an incast.
	run := func(withCC bool) (pauses int64, goodput float64) {
		c, _, n := testbedNet(t, routing.UpDown)
		g := c.Graph
		if withCC {
			n.EnableDCQCN(DefaultDCQCN())
		}
		f1 := n.AddFlow(FlowSpec{Name: "a", Src: g.MustLookup("H5"), Dst: g.MustLookup("H1")})
		f2 := n.AddFlow(FlowSpec{Name: "b", Src: g.MustLookup("H9"), Dst: g.MustLookup("H1")})
		n.Run(20 * time.Millisecond)
		return n.PauseFrames, f1.MeanGbps(10*time.Millisecond, 20*time.Millisecond) +
			f2.MeanGbps(10*time.Millisecond, 20*time.Millisecond)
	}

	pausesOff, goodputOff := run(false)
	pausesOn, goodputOn := run(true)
	if pausesOn*5 > pausesOff {
		t.Errorf("DCQCN pauses = %d, want far below baseline %d", pausesOn, pausesOff)
	}
	// Goodput stays in the same ballpark (the bottleneck is 40G).
	if goodputOn < goodputOff*0.6 {
		t.Errorf("DCQCN goodput %.1f collapsed vs %.1f", goodputOn, goodputOff)
	}
}

func TestDCQCNMarksAndCNPs(t *testing.T) {
	c, _, n := testbedNet(t, routing.UpDown)
	g := c.Graph
	n.EnableDCQCN(DefaultDCQCN())
	n.AddFlow(FlowSpec{Name: "a", Src: g.MustLookup("H5"), Dst: g.MustLookup("H1")})
	n.AddFlow(FlowSpec{Name: "b", Src: g.MustLookup("H9"), Dst: g.MustLookup("H1")})
	n.Run(10 * time.Millisecond)
	if n.dcqcn.marks == 0 {
		t.Error("no ECN marks under incast")
	}
	if n.dcqcn.cnps == 0 {
		t.Error("no CNPs delivered")
	}
	// Senders actually slowed down below line rate.
	slowed := false
	for _, f := range n.flows {
		if f.ccRate < n.cfg.LinkBitsPerSec {
			slowed = true
		}
	}
	if !slowed {
		t.Error("no sender reduced its rate")
	}
}

func TestDCQCNNoMarksUncongested(t *testing.T) {
	c, _, n := testbedNet(t, routing.UpDown)
	g := c.Graph
	n.EnableDCQCN(DefaultDCQCN())
	f := n.AddFlow(FlowSpec{Name: "solo", Src: g.MustLookup("H1"), Dst: g.MustLookup("H9")})
	n.Run(10 * time.Millisecond)
	if n.dcqcn.marks != 0 || n.dcqcn.cnps != 0 {
		t.Errorf("uncongested flow marked: marks=%d cnps=%d", n.dcqcn.marks, n.dcqcn.cnps)
	}
	if got := f.MeanGbps(5*time.Millisecond, 10*time.Millisecond); got < 35 {
		t.Errorf("solo flow at %.1f Gbps", got)
	}
}

// TestDCQCNDoesNotGuaranteeDeadlockFreedom documents why Tagger exists
// even with congestion control deployed (§6): DCQCN reacts on RTT
// timescales and cannot prevent CBDs; depending on timing the Figure 10
// scenario can still deadlock, and nothing about the mechanism rules it
// out. We assert the factual outcome in this deterministic setup and,
// more importantly, that Tagger on top of DCQCN is clean.
func TestDCQCNWithTaggerClean(t *testing.T) {
	c, tb, n := testbedNet(t, routing.UpDown)
	g := c.Graph
	forceFig3Routes(c, tb)
	n.EnableDCQCN(DefaultDCQCN())
	n.InstallTagger(core.ClosRules(g, 1, 1))
	n.AddFlow(FlowSpec{Name: "green", Src: g.MustLookup("H9"), Dst: g.MustLookup("H1")})
	n.AddFlow(FlowSpec{Name: "blue", Src: g.MustLookup("H2"), Dst: g.MustLookup("H13"),
		Start: time.Millisecond})
	n.Run(20 * time.Millisecond)
	if n.Deadlocked() {
		t.Fatal("deadlock with Tagger + DCQCN")
	}
	if d := n.Drops(); d.Total() != 0 {
		t.Errorf("drops: %+v", d)
	}
}
