package sim

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/paper"
	"repro/internal/routing"
)

// probeArbitrate is the egress arbiter the bit scan replaced — one
// empty/paused probe per queue, the round-robin index wrapped with % —
// kept only as the reference model for arbitrate.
func probeArbitrate(nonEmpty, paused [maxQueues]bool, rrNext, nQueues int, strict bool) (q, next int) {
	if strict {
		for q := nQueues - 1; q >= 0; q-- {
			if !nonEmpty[q] || (q != 0 && paused[q]) {
				continue
			}
			return q, rrNext
		}
		return -1, rrNext
	}
	for i := 0; i < nQueues; i++ {
		q := (rrNext + i) % nQueues
		if !nonEmpty[q] {
			continue
		}
		if q != 0 && paused[q] {
			continue
		}
		return q, (q + 1) % nQueues
	}
	return -1, rrNext
}

// TestArbitrateMatchesProbeLoop holds the bit scan to the probe loop on
// every (queue count, non-empty set, paused set, round-robin pointer,
// discipline) state a port can be in: same queue picked, same pointer
// left behind.
func TestArbitrateMatchesProbeLoop(t *testing.T) {
	for nQueues := 1; nQueues <= maxQueues; nQueues++ {
		for ne := 0; ne < 1<<nQueues; ne++ {
			for pa := 0; pa < 1<<nQueues; pa++ {
				var nonEmpty, paused [maxQueues]bool
				for q := 0; q < nQueues; q++ {
					nonEmpty[q] = ne>>q&1 != 0
					paused[q] = pa>>q&1 != 0
				}
				for rr := 0; rr < nQueues; rr++ {
					for _, strict := range []bool{false, true} {
						wantQ, wantNext := probeArbitrate(nonEmpty, paused, rr, nQueues, strict)
						gotQ, gotNext := arbitrate(prioMask(ne), prioMask(pa), uint8(rr), nQueues, strict)
						if gotQ != wantQ || int(gotNext) != wantNext {
							t.Fatalf("arbitrate(nonEmpty %08b, paused %08b, rrNext %d, %d queues, strict %v) = queue %d next %d, probe loop says queue %d next %d",
								ne, pa, rr, nQueues, strict, gotQ, gotNext, wantQ, wantNext)
						}
					}
				}
			}
		}
	}
}

// TestMaxPriorityGuard: New refuses a priority count the port masks and
// fixed per-priority arrays cannot hold, and says why.
func TestMaxPriorityGuard(t *testing.T) {
	c := paper.Testbed()
	tb := routing.ComputeToHosts(c.Graph, routing.UpDown)
	for _, mp := range []int{-1, maxQueues, 64} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "MaxPriority") {
					t.Errorf("New with MaxPriority %d: panic %q, want one naming MaxPriority", mp, msg)
				}
			}()
			cfg := DefaultConfig()
			cfg.MaxPriority = mp
			New(c.Graph, tb, cfg)
		}()
	}
	cfg := DefaultConfig()
	cfg.MaxPriority = maxQueues - 1
	n := New(c.Graph, tb, cfg)
	g := c.Graph
	f := n.AddFlow(FlowSpec{Name: "top", Src: g.MustLookup("H1"), Dst: g.MustLookup("H9"), StartTag: maxQueues - 1})
	n.Run(time.Millisecond)
	if f.Received() == 0 {
		t.Error("no traffic delivered on the highest priority the guard admits")
	}
	if err := n.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// assertDrained checks a fabric whose flows have all stopped and whose
// queues have emptied: nothing is charged anywhere, every pause has been
// resumed, and every slab slot is back on the free list.
func assertDrained(t *testing.T, n *Network) {
	t.Helper()
	if err := n.CheckInvariants(); err != nil {
		t.Error(err)
	}
	for ni := range n.nodes {
		rt := &n.nodes[ni]
		if rt.bufferUsed != 0 {
			t.Errorf("%s: bufferUsed = %d after draining", n.nodeName(rt.id), rt.bufferUsed)
		}
		for pi := range rt.ports {
			prt := &rt.ports[pi]
			for q, b := range prt.inBytes {
				if b != 0 {
					t.Errorf("%s port %d priority %d: %d ingress bytes still charged", n.nodeName(rt.id), pi, q, b)
				}
			}
			if prt.txBusy || prt.nonEmpty != 0 || prt.paused != 0 || prt.pausedUpstream != 0 {
				t.Errorf("%s port %d: txBusy %v nonEmpty %08b paused %08b pausedUpstream %08b after draining",
					n.nodeName(rt.id), pi, prt.txBusy, prt.nonEmpty, prt.paused, prt.pausedUpstream)
			}
		}
	}
	if n.PauseFrames != n.ResumeFrames {
		t.Errorf("%d PAUSE frames, %d RESUME frames", n.PauseFrames, n.ResumeFrames)
	}
	if n.pkts.live() != 0 || len(n.pkts.free) != len(n.pkts.slots) {
		t.Errorf("slab: %d live, %d of %d slots free: a slot leaked", n.pkts.live(), len(n.pkts.free), len(n.pkts.slots))
	}
}

// TestZeroPropDelaySlotOrder: with PropDelay 0 a frame's txDone and its
// arrival at the peer fall on the same instant, and both go through the
// one slab slot — txDone to read the ingress charge it must release, the
// arrival to overwrite that charge with the peer's. startTx schedules
// txDone first, so it is dispatched first; were it not, every release
// would be applied to the wrong switch's counters and the incast below
// would neither drain to zero nor stay lossless.
func TestZeroPropDelaySlotOrder(t *testing.T) {
	c := paper.Testbed()
	g := c.Graph
	cfg := DefaultConfig()
	cfg.PropDelay = 0
	n := New(g, routing.ComputeToHosts(g, routing.UpDown), cfg)

	// The order itself, on one frame: same time, txDone ahead by seq.
	h1 := g.MustLookup("H1")
	h := n.pkts.alloc()
	n.pkts.slots[h] = packet{size: int32(cfg.MTU), inPort: -1}
	n.startTx(int(h1), &n.nodes[h1].ports[0], 0, h, int32(cfg.MTU))
	var first, second event
	if !n.events.pop(math.MaxInt64, &first) || !n.events.pop(math.MaxInt64, &second) {
		t.Fatal("startTx scheduled fewer than two events")
	}
	if first.kind != evTxDone || second.kind != evArrive || first.at != second.at || second.arg != h {
		t.Fatalf("startTx with PropDelay 0 dispatches %+v then %+v, want txDone then the arrival of handle %d at the same time", first, second, h)
	}
	n.nodes[h1].ports[0].txBusy = false
	n.pkts.release(h)

	// And its consequence, on a PFC-heavy run.
	const stop = 4 * time.Millisecond
	a := n.AddFlow(FlowSpec{Name: "a", Src: g.MustLookup("H5"), Dst: h1, Stop: stop})
	b := n.AddFlow(FlowSpec{Name: "b", Src: g.MustLookup("H9"), Dst: h1, Stop: stop})
	n.Run(stop / 2)
	if err := n.CheckInvariants(); err != nil {
		t.Errorf("mid-run: %v", err)
	}
	n.Run(2 * stop)
	if n.PauseFrames == 0 {
		t.Fatal("the incast never paused: the run did not exercise ingress release")
	}
	if d := n.Drops(); d.Total() != 0 {
		t.Errorf("drops: %+v", d)
	}
	for _, f := range []*Flow{a, b} {
		if f.Received() == 0 || f.Received() != f.sent {
			t.Errorf("flow %s: sent %d, received %d", f.Name(), f.sent, f.Received())
		}
	}
	assertDrained(t, n)
}

// TestRebootMidSerialization power-cycles a switch while its ports are
// putting frames on the wire. Those frames share their slab slot with the
// arrival pending at the peer: the reboot neutralizes the ingress charge
// in the slot, txDone must read that before the peer's arrive rewrites
// it, and neither the frames lost in the queues nor the ones in flight
// may leak a slot.
func TestRebootMidSerialization(t *testing.T) {
	for _, prop := range []time.Duration{0, time.Microsecond} {
		c := paper.Testbed()
		g := c.Graph
		cfg := DefaultConfig()
		cfg.PropDelay = prop
		n := New(g, routing.ComputeToHosts(g, routing.UpDown), cfg)
		const stop = 6 * time.Millisecond
		n.AddFlow(FlowSpec{Name: "a", Src: g.MustLookup("H5"), Dst: g.MustLookup("H1"), Stop: stop})
		n.AddFlow(FlowSpec{Name: "b", Src: g.MustLookup("H9"), Dst: g.MustLookup("H1"), Stop: stop})

		t1 := n.rt(g.MustLookup("T1"))
		var lost int64
		serializing := 0
		n.At(3*time.Millisecond, func() {
			for pi := range t1.ports {
				if t1.ports[pi].txBusy {
					serializing++
				}
			}
			lost = n.RebootSwitch(t1.id)
			if err := n.CheckInvariants(); err != nil {
				t.Errorf("PropDelay %v, right after the reboot: %v", prop, err)
			}
		})
		n.Run(2 * stop)

		if serializing == 0 || lost == 0 {
			t.Fatalf("PropDelay %v: reboot caught %d frames mid-serialization and %d queued, want both", prop, serializing, lost)
		}
		if d := n.Drops(); d.SwitchReboot != lost || d.Total() != lost {
			t.Errorf("PropDelay %v: reboot lost %d packets, drops %+v", prop, lost, d)
		}
		for _, f := range n.flows {
			if f.MeanGbps(4*time.Millisecond, stop) <= 0 {
				t.Errorf("PropDelay %v: flow %s stalled after the reboot", prop, f.Name())
			}
		}
		assertDrained(t, n)
	}
}
