package sim

import (
	"testing"
	"time"

	"repro/internal/paper"
	"repro/internal/routing"
)

func TestDynamicThresholdMath(t *testing.T) {
	c := paper.Testbed()
	tb := routing.ComputeToHosts(c.Graph, routing.UpDown)
	cfg := DefaultConfig()
	cfg.DynamicThreshold = true
	cfg.DTAlpha = 0.25
	cfg.SwitchBuffer = 512 << 10
	cfg.PFC.XoffThreshold = 64 << 10
	cfg.XonGap = 16 << 10
	n := New(c.Graph, tb, cfg)
	rt := n.rt(c.Leaves[0])

	// Empty buffer: DT = 0.25 * 512K = 128K > static 64K, static binds.
	if got := n.xoff(rt); got != 64<<10 {
		t.Errorf("empty-buffer xoff = %d", got)
	}
	// Half full: DT = 0.25 * 256K = 64K, tie.
	rt.bufferUsed = 256 << 10
	if got := n.xoff(rt); got != 64<<10 {
		t.Errorf("half-full xoff = %d", got)
	}
	// Nearly full: DT collapses but floors at 2 MTU.
	rt.bufferUsed = 511 << 10
	if got := n.xoff(rt); got != int64(2*cfg.MTU) {
		t.Errorf("full-buffer xoff = %d, want floor %d", got, 2*cfg.MTU)
	}
	// Over-full (transient): free clamps at 0.
	rt.bufferUsed = 600 << 10
	if got := n.xoff(rt); got != int64(2*cfg.MTU) {
		t.Errorf("overfull xoff = %d", got)
	}
	// Xon tracks the collapsed threshold with the gap, floored at 0.
	if got := n.xon(rt); got != 0 {
		t.Errorf("xon = %d, want 0 (threshold below gap)", got)
	}
	rt.bufferUsed = 0
	if got := n.xon(rt); got != 64<<10-16<<10 {
		t.Errorf("xon = %d", got)
	}
}

func TestStaticThresholdPath(t *testing.T) {
	c := paper.Testbed()
	tb := routing.ComputeToHosts(c.Graph, routing.UpDown)
	cfg := DefaultConfig()
	cfg.DynamicThreshold = false
	cfg.PFC.XonThreshold = 8 << 10
	n := New(c.Graph, tb, cfg)
	rt := n.rt(c.Leaves[0])
	rt.bufferUsed = 1 << 30 // irrelevant without DT
	if got := n.xoff(rt); got != cfg.PFC.XoffThreshold {
		t.Errorf("xoff = %d", got)
	}
	if got := n.xon(rt); got != 8<<10 {
		t.Errorf("xon = %d", got)
	}
}

func TestBufferAccountingBalances(t *testing.T) {
	// After a run with completed traffic, every switch's shared-buffer
	// accounting must drain back to the bytes still legitimately queued.
	c := paper.Testbed()
	tb := routing.ComputeToHosts(c.Graph, routing.UpDown)
	n := New(c.Graph, tb, DefaultConfig())
	g := c.Graph
	n.AddFlow(FlowSpec{Name: "f", Src: g.MustLookup("H1"), Dst: g.MustLookup("H9"),
		Stop: 5 * time.Millisecond})
	n.Run(10 * time.Millisecond)
	if err := n.CheckInvariants(); err != nil {
		t.Error(err)
	}
	for i := range n.nodes {
		if rt := &n.nodes[i]; rt.bufferUsed != 0 {
			t.Errorf("switch %s: bufferUsed=%d after the fabric drained", g.Node(rt.id).Name, rt.bufferUsed)
		}
	}
}
