package sim

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/topology"
)

// fig3DetectorNet builds the pinned Figure 3 CBD scenario with the
// in-switch detector enabled under cfg, tracking deadlock episodes.
func fig3DetectorNet(t *testing.T, cfg DetectorConfig, tagger bool) (*Network, *DetectorStats, *DeadlockTrack) {
	t.Helper()
	c, tb, n := testbedNet(t, routing.UpDown)
	g := c.Graph
	forceFig3Routes(c, tb)
	if tagger {
		n.InstallTagger(core.ClosRules(g, 1, 1))
	}
	det := n.EnableDetector(cfg)
	track := n.TrackDeadlocks()
	n.AddFlow(FlowSpec{Name: "green", Src: g.MustLookup("H9"), Dst: g.MustLookup("H1")})
	n.AddFlow(FlowSpec{Name: "blue", Src: g.MustLookup("H2"), Dst: g.MustLookup("H13"),
		Start: time.Millisecond})
	return n, det, track
}

// TestDetectorFindsFigure3Deadlock: with mitigation off, the in-switch
// detector must see its own tag return around the Figure 3 CBD — a true
// positive with a sane time-to-detect — and never fire before the
// cycle actually exists.
func TestDetectorFindsFigure3Deadlock(t *testing.T) {
	n, det, track := fig3DetectorNet(t, DetectorConfig{Mitigation: MitigateNone}, false)
	n.Run(20 * time.Millisecond)

	if !n.Deadlocked() {
		t.Fatal("scenario no longer deadlocks; detector had nothing to find")
	}
	if det.Detections == 0 {
		t.Fatalf("detector never fired on a live CBD: %+v", det)
	}
	if det.FalsePositives != 0 {
		t.Errorf("%d detections fired with no live cycle", det.FalsePositives)
	}
	if track.Onsets == 0 {
		t.Fatal("deadlock tracker saw no onset")
	}
	if det.FirstDetectAt < track.FirstOnsetAt {
		t.Errorf("first detection %v precedes deadlock onset %v", det.FirstDetectAt, track.FirstOnsetAt)
	}
	if det.TTDSamples == 0 {
		t.Error("no time-to-detect samples")
	} else if ttd := det.MeanTTD(); ttd <= 0 || ttd > 5*time.Millisecond {
		t.Errorf("mean time-to-detect = %v, want (0, 5ms]", ttd)
	}
	// Tag state machine sanity: pauses propagated tags around the cycle.
	if det.Origins == 0 || det.Inherited == 0 {
		t.Errorf("tag machinery idle: %d origins, %d inherited", det.Origins, det.Inherited)
	}
}

// TestDetectorMitigationRecovers: with the targeted-drop hook armed the
// detector must break the Figure 3 deadlock it finds — bounded
// time-to-recover, goodput restored afterward, and only deliberate
// (attributed) drops on the ledger.
func TestDetectorMitigationRecovers(t *testing.T) {
	n, det, track := fig3DetectorNet(t, DetectorConfig{Mitigation: MitigateDrop}, false)
	n.Run(30 * time.Millisecond)

	if track.Onsets == 0 {
		t.Fatal("scenario no longer deadlocks; nothing to recover from")
	}
	if det.Mitigations == 0 || det.PacketsDropped == 0 {
		t.Fatalf("mitigation never swept: %+v", det)
	}
	if track.Open() {
		t.Fatalf("deadlock still open at end of run: %+v", track)
	}
	if track.Recoveries == 0 {
		t.Fatal("no recoveries recorded")
	}
	if ttr := track.MaxTTR; ttr <= 0 || ttr > 10*time.Millisecond {
		t.Errorf("max time-to-recover = %v, want (0, 10ms]", ttr)
	}
	d := n.Drops()
	if d.DetectMitigation != det.PacketsDropped {
		t.Errorf("DropStats.DetectMitigation = %d, want %d", d.DetectMitigation, det.PacketsDropped)
	}
	if d.HeadroomViolation != 0 {
		t.Errorf("mitigation leaked into HeadroomViolation: %d", d.HeadroomViolation)
	}
	// Post-recovery the fabric must actually move packets again.
	var late float64
	for _, f := range n.flows {
		late += f.MeanGbps(25*time.Millisecond, 30*time.Millisecond)
	}
	if late < 1 {
		t.Errorf("aggregate goodput after recovery = %.2f Gbps, want > 1", late)
	}
}

// TestDetectorQuietUnderTagger is the false-positive oracle at sim
// level: on the Tagger-protected run of the same scenario no deadlock
// forms, so the detector must never fire — not once, across the full
// run — and must not disturb Tagger's lossless guarantee.
func TestDetectorQuietUnderTagger(t *testing.T) {
	n, det, track := fig3DetectorNet(t, DetectorConfig{Mitigation: MitigateDrop}, true)
	n.Run(20 * time.Millisecond)

	if n.Deadlocked() || track.Onsets != 0 {
		t.Fatalf("deadlock under Tagger: %v", n.DetectDeadlock())
	}
	if det.Detections != 0 {
		t.Errorf("detector fired %d times on a deadlock-free run (%d via packet, %d via pause)",
			det.Detections, det.ViaPacket, det.ViaPause)
	}
	if det.Mitigations != 0 {
		t.Errorf("mitigation swept %d times with nothing to mitigate", det.Mitigations)
	}
	if d := n.Drops(); d.Total() != 0 {
		t.Errorf("drops on a Tagger run with detector enabled: %+v", d)
	}
}

// TestDetectorTraceEvents: detections and mitigations surface as
// "detect"/"mitigate" trace events with their transport and action
// reasons.
func TestDetectorTraceEvents(t *testing.T) {
	n, det, _ := fig3DetectorNet(t, DetectorConfig{Mitigation: MitigateDrop}, false)
	var detects, mitigates, mitigateDrops int
	n.SetTracer(traceFunc(func(ev TraceEvent) {
		switch ev.Kind {
		case "detect":
			detects++
			if ev.Reason != "packet" && ev.Reason != "pause" {
				t.Errorf("detect event reason = %q, want packet or pause", ev.Reason)
			}
			if ev.Node == "" {
				t.Error("detect event without a node")
			}
		case "mitigate":
			mitigates++
			if ev.Reason != "drop" {
				t.Errorf("mitigate event reason = %q, want drop", ev.Reason)
			}
		case "drop":
			if ev.Reason == "mitigate" {
				mitigateDrops++
			}
		}
	}))
	n.Run(30 * time.Millisecond)

	if detects != det.Detections {
		t.Errorf("trace saw %d detect events, stats say %d", detects, det.Detections)
	}
	if mitigates != det.Mitigations {
		t.Errorf("trace saw %d mitigate events, stats say %d", mitigates, det.Mitigations)
	}
	if int64(mitigateDrops) != det.PacketsDropped {
		t.Errorf("trace saw %d mitigation drops, stats say %d", mitigateDrops, det.PacketsDropped)
	}
}

// traceFunc adapts a function to the Tracer interface for tests.
type traceFunc func(TraceEvent)

func (f traceFunc) Trace(ev TraceEvent) { f(ev) }

func TestTagCodec(t *testing.T) {
	cases := []struct {
		node, port, prio int
		epoch            uint32
	}{
		{0, 0, 0, 0},
		{1, 2, 3, 4},
		{65535, 4095, 15, 0xffffff},
		{17, 0, 1, 9000},
	}
	for _, c := range cases {
		tg := makeDetTag(c.node, c.port, c.prio, c.epoch)
		if tg == 0 {
			t.Fatalf("makeDetTag(%v) = 0; the zero value must stay reserved", c)
		}
		if tg.node() != c.node || tg.port() != c.port || tg.prio() != c.prio || tg.epoch() != c.epoch {
			t.Errorf("roundtrip %v -> (%d,%d,%d,%d)", c, tg.node(), tg.port(), tg.prio(), tg.epoch())
		}
	}
}

// detRing drives the tag machine alone over a synthetic wait-for ring of
// k switches: switch i's ingress port 0 (prio 1) feeds egress port 1
// (prio 1), which switch (i+1)%k pauses. held[i] says whether that
// egress queue holds a packet charged to the ingress — what
// Network.inheritable learns by scanning the queue.
type detRing struct {
	d     *detector
	nodes []nodeRT
	held  []bool
}

func newDetRing(k int) *detRing {
	nodes := make([]nodeRT, k)
	for i := range nodes {
		nodes[i] = nodeRT{id: topology.NodeID(i), ports: make([]portRT, 2)} // port 0 = upstream, 1 = downstream
	}
	return &detRing{d: newDetector(nodes, 2, DetectorConfig{}), nodes: nodes, held: make([]bool, k)}
}

// cand is switch i's inheritance candidate: the tag recorded on its
// paused egress (1, 1) if that queue holds the ingress's packets.
func (r *detRing) cand(i int) detTag {
	if !r.held[i] || !r.nodes[i].ports[1].paused.has(1) {
		return 0
	}
	return r.d.eg[i][1*2+1]
}

// pause asserts PAUSE on switch i's ingress, as sendPFC does.
func (r *detRing) pause(i int) detTag {
	rt := &r.nodes[i]
	rt.ports[0].pausedUpstream.set(1)
	return r.d.retag(rt, 0, 1, r.cand(i))
}

// resume releases switch i's ingress.
func (r *detRing) resume(i int) {
	rt := &r.nodes[i]
	rt.ports[0].pausedUpstream.clear(1)
	r.d.ingress(rt, 0, 1).close()
}

// pauseAt lands a pause carrying tg on switch i's egress (1, 1) and
// reports whether it fired.
func (r *detRing) pauseAt(i int, tg detTag) bool {
	rt := &r.nodes[i]
	rt.ports[1].paused.set(1)
	return r.d.pauseReceived(rt, 1, 1, tg)
}

// TestPauseChainDetection closes a ring causally: each switch holds a
// packet for its downstream egress, receives the downstream pause, then
// asserts its own — inheriting the tag. The origin must detect when its
// own tag arrives on the final pause.
func TestPauseChainDetection(t *testing.T) {
	r := newDetRing(4)
	for i := range r.held {
		r.held[i] = true
	}
	// Switch 0 triggers first (no paused egress yet): it originates.
	tag := r.pause(0)
	if tag == 0 || tag.node() != 0 {
		t.Fatalf("origin tag = %x", tag)
	}
	if r.d.stats.Origins != 1 {
		t.Fatalf("Origins = %d, want 1", r.d.stats.Origins)
	}
	// The pause wave chains backward: switch 0's pause lands on switch
	// k-1's egress, which then asserts its own pause and inherits, and so
	// on around the ring.
	cur := tag
	for i := len(r.nodes) - 1; i >= 1; i-- {
		if r.pauseAt(i, cur) {
			t.Fatalf("premature detection at switch %d", i)
		}
		if cur = r.pause(i); cur != tag {
			t.Fatalf("switch %d minted %x instead of inheriting %x", i, cur, tag)
		}
	}
	// The final pause closes the ring at the origin, which re-arms under
	// a fresh epoch.
	if !r.pauseAt(0, cur) {
		t.Fatal("origin did not detect its own returning tag")
	}
	if st := r.d.ingress(&r.nodes[0], 0, 1); !st.origin || st.tag.epoch() != tag.epoch()+1 {
		t.Errorf("origin after detection: %+v", *st)
	}
	// The epoch retired: the same tag cannot fire twice.
	if r.pauseAt(0, cur) {
		t.Error("stale tag re-fired after detection")
	}
}

// TestPacketReturnDetection walks a tag around the ring in packet
// metadata: every hop's charged ingress is paused, so the tag keeps
// riding; the creator detects on arrival.
func TestPacketReturnDetection(t *testing.T) {
	r := newDetRing(3)
	for i := range r.nodes {
		r.held[i] = true
		r.pause(i)
	}
	tag := r.d.departure(&r.nodes[0], 0, 1, 0)
	if tag == 0 || tag.node() != 0 {
		t.Fatalf("departure through a paused ingress carried %x", tag)
	}
	for i := 1; i < len(r.nodes); i++ {
		rt := &r.nodes[i]
		if r.d.arrival(rt, 0, 1, tag) {
			t.Fatalf("foreign tag fired at switch %d", i)
		}
		if out := r.d.departure(rt, 0, 1, tag); out != tag {
			t.Fatalf("switch %d replaced the foreign tag: %x", i, out)
		}
	}
	if !r.d.arrival(&r.nodes[0], 0, 1, tag) {
		t.Fatal("creator did not detect its returning packet tag")
	}
	if r.d.arrival(&r.nodes[0], 0, 1, tag) {
		t.Error("a second copy of the tag fired in a retired epoch")
	}
	if got := r.d.stats.Adopted; got != 2 {
		t.Errorf("Adopted = %d, want 2 (one per paused foreign hop)", got)
	}
}

// TestUnpausedHopClearsTag: a hop whose charged ingress is not paused
// breaks the congestion chain, so the tag must not survive it.
func TestUnpausedHopClearsTag(t *testing.T) {
	r := newDetRing(2)
	r.pause(0)
	tag := r.d.departure(&r.nodes[0], 0, 1, 0)
	if tag == 0 {
		t.Fatal("no tag from paused origin")
	}
	// Switch 1's ingress is NOT paused.
	if out := r.d.departure(&r.nodes[1], 0, 1, tag); out != 0 {
		t.Errorf("unpaused hop forwarded tag %x", out)
	}
}

// TestResumeInvalidatesEpoch: once the origin resumes, its outstanding
// tags are stale even if the ingress re-pauses later.
func TestResumeInvalidatesEpoch(t *testing.T) {
	r := newDetRing(2)
	r.pause(0)
	old := r.d.departure(&r.nodes[0], 0, 1, 0)
	r.resume(0)
	r.pause(0) // new episode, new epoch
	if r.d.arrival(&r.nodes[0], 0, 1, old) {
		t.Error("stale-epoch tag fired after resume")
	}
}

// TestEpochWrapKeepsDetecting: the epoch counter wraps inside the tag's
// 24-bit field, so an ingress that has resumed 2^24 times still
// recognizes its own live tag.
func TestEpochWrapKeepsDetecting(t *testing.T) {
	r := newDetRing(2)
	for i := 0; i < 1<<24; i++ {
		r.resume(0)
	}
	tag := r.pause(0)
	if !r.pauseAt(0, tag) {
		t.Fatalf("own live tag did not fire: stored epoch %d, tag epoch %d",
			r.d.ingress(&r.nodes[0], 0, 1).epoch, tag.epoch())
	}
}

// TestRefreshConvergesConcurrentOrigins reproduces the two-origin race:
// both switches of a 2-ring assert before seeing each other's pause, so
// both originate. The periodic refresh must let one chain adopt the
// other's tag and close the loop.
func TestRefreshConvergesConcurrentOrigins(t *testing.T) {
	r := newDetRing(2)
	r.held[0], r.held[1] = true, true
	t0 := r.pause(0) // both originate: neither has a paused egress yet
	t1 := r.pause(1)
	if r.pauseAt(1, t0) || r.pauseAt(0, t1) {
		t.Fatal("foreign tag fired")
	}
	// Refresh: each side now sees a paused egress holding its packets and
	// adopts the foreign tag; delivering either refreshed tag upstream
	// closes the cycle at that tag's creator.
	rt := r.d.retag(&r.nodes[0], 0, 1, r.cand(0))
	if rt != t1 {
		t.Fatalf("refresh at 0 carries %x, want adopted %x", rt, t1)
	}
	if !r.pauseAt(1, rt) {
		t.Fatal("refresh delivery did not close the cycle")
	}
}

// TestResetNode: a reboot retires the epoch of every ingress, so a tag
// minted before it cannot fire after it.
func TestResetNode(t *testing.T) {
	r := newDetRing(2)
	r.pause(0)
	tag := r.d.departure(&r.nodes[0], 0, 1, 0)
	// The pause bit stays set, so only the retired epoch refuses the tag.
	r.d.reset(&r.nodes[0])
	if r.d.arrival(&r.nodes[0], 0, 1, tag) {
		t.Error("pre-reboot tag fired after reset")
	}
	if st := r.d.ingress(&r.nodes[0], 0, 1); st.tag != 0 || st.origin || st.carry != 0 {
		t.Errorf("ingress state survived reset: %+v", *st)
	}
}

// TestInheritFromFirstWaitEdge pins the queue scan behind inheritance:
// of the paused egress queues holding packets charged to the asserting
// ingress, the first in ascending (port, prio) order lends its tag;
// queues holding only other ingresses' packets, or paused without a
// recorded tag, lend nothing.
func TestInheritFromFirstWaitEdge(t *testing.T) {
	n := &Network{nQueues: 3, nodes: []nodeRT{{ports: make([]portRT, 5)}}}
	n.det = newDetector(n.nodes, n.nQueues, DetectorConfig{})
	rt := &n.nodes[0]
	queue := func(out, q, inPort, inPrio int, tg detTag) {
		h := n.pkts.alloc()
		n.pkts.slots[h] = packet{size: 1000, inPort: int16(inPort), inPrio: int16(inPrio)}
		rt.ports[out].enqueue(q, h, 1000)
		rt.ports[out].paused.set(q)
		n.det.eg[0][out*n.nQueues+q] = tg
	}
	queue(1, 2, 3, 1, makeDetTag(7, 0, 1, 0)) // charged to another ingress
	queue(2, 1, 0, 1, 0)                      // paused, no recorded tag
	queue(3, 2, 0, 1, makeDetTag(8, 0, 2, 0)) // the first wait-for edge
	queue(4, 1, 0, 1, makeDetTag(9, 0, 1, 0)) // a later one
	if got, want := n.inheritable(rt, 0, 1), makeDetTag(8, 0, 2, 0); got != want {
		t.Errorf("inheritable = %x, want the tag of egress (3, 2) %x", got, want)
	}
	if got := n.inheritable(rt, 0, 2); got != 0 {
		t.Errorf("ingress with no queued packets inherits %x", got)
	}
}
