package sim

import (
	"time"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/telemetry"
)

// Mitigation selects the detector's reaction to a confirmed detection.
// All reactions are targeted — they act only on the packets charged to
// the one ingress (port, priority) whose pause episode closed into a
// cycle, at the one switch that detected it. Never a global flush.
type Mitigation uint8

const (
	// MitigateNone observes only (detection counters and traces, no
	// intervention) — the false-positive-oracle mode.
	MitigateNone Mitigation = iota
	// MitigateDrop discards the deadlock-initiating packets: every queued
	// packet charged to the origin ingress is dropped and its ingress
	// accounting released, un-sticking the upstream pause.
	MitigateDrop
	// MitigateDemote reroutes the initiating packets into the lossy
	// class on their current port (retagged core.LossyTag, so they stay
	// lossy downstream), releasing the lossless claim without losing the
	// data unless the lossy queue overflows.
	MitigateDemote
)

// DetectorConfig tunes the in-switch detector.
type DetectorConfig struct {
	// Mitigation is the reaction hook; MitigateNone observes only.
	Mitigation Mitigation
	// RefreshInterval is the PFC pause-refresh cadence carrying detection
	// tags backward along still-asserted pauses (802.1Qbb pauses expire
	// and are re-sent; the simulator's pauses are otherwise eternal, so
	// the detector models the refresh itself). 0 means 100µs.
	RefreshInterval time.Duration
}

// DetectorStats is the in-switch detector's tally, updated in place as
// the run progresses.
type DetectorStats struct {
	// Detections counts own-tag returns, split by transport medium.
	Detections int
	ViaPacket  int
	ViaPause   int
	// FalsePositives counts detections fired while the global wait-for
	// scan saw no cycle — the oracle the detect-vs-prevent matrix tracks.
	FalsePositives int
	// FirstDetectAt is the sim time of the first detection (-1 if none).
	FirstDetectAt time.Duration
	// TTDSamples/SumTTD/MaxTTD aggregate time-to-detect: detection time
	// minus the onset time of the open deadlock episode (requires
	// TrackDeadlocks; only the first detection per episode samples).
	TTDSamples int
	SumTTD     time.Duration
	MaxTTD     time.Duration
	// Mitigations counts mitigation sweeps; PacketsDropped/BytesDropped
	// the packets sacrificed (drop mode and demote-overflow), and
	// PacketsDemoted the packets salvaged into the lossy class.
	Mitigations    int
	PacketsDropped int64
	BytesDropped   int64
	PacketsDemoted int64
	// Engine carries the tag-machine tallies (origins, inheritance,
	// adoption, refreshes), copied out at the end of the run.
	Engine detect.Stats
}

// MeanTTD returns the mean time-to-detect over sampled episodes.
func (s *DetectorStats) MeanTTD() time.Duration {
	if s.TTDSamples == 0 {
		return 0
	}
	return s.SumTTD / time.Duration(s.TTDSamples)
}

// detState bundles the engine with its simulator-side config.
type detState struct {
	eng   *detect.Engine
	cfg   DetectorConfig
	stats *DetectorStats
}

// EnableDetector arms the DCFIT-style in-switch detector on every
// switch. Must be called before Run. Returns the stats structure,
// updated in place. Pair with TrackDeadlocks for time-to-detect and
// time-to-recover accounting.
func (n *Network) EnableDetector(cfg DetectorConfig) *DetectorStats {
	if cfg.RefreshInterval <= 0 {
		cfg.RefreshInterval = 100 * time.Microsecond
	}
	ports := make([]int, len(n.nodes))
	for i := range n.nodes {
		ports[i] = len(n.nodes[i].ports)
	}
	stats := &DetectorStats{FirstDetectAt: -1}
	n.det = &detState{eng: detect.NewEngine(ports, n.cfg.MaxPriority+1), cfg: cfg, stats: stats}
	p := int64(cfg.RefreshInterval)
	n.addTimer(timerRT{kind: timerDetectRefresh, period: p}, n.now+p)
	return stats
}

// DetectorStats returns the live stats (nil when no detector is armed),
// with the engine tallies refreshed.
func (n *Network) DetectorStats() *DetectorStats {
	if n.det == nil {
		return nil
	}
	n.det.stats.Engine = n.det.eng.Stats()
	return n.det.stats
}

// --- Deadlock episode tracking ---------------------------------------------

// DeadlockTrack measures deadlock episodes exactly: onset when a
// wait-for cycle first appears (checked at every PFC pause effect) and
// recovery when it disappears (checked at resume effects and directly
// after every cycle-breaking intervention). It powers the matrix's
// time-to-recover and "unrecovered" verdicts; arms Onsets even with no
// detector or recovery monitor installed.
type DeadlockTrack struct {
	// Onsets counts distinct deadlock episodes.
	Onsets int
	// FirstOnsetAt is the sim time of the first onset (-1 if never).
	FirstOnsetAt time.Duration
	// Recoveries counts episodes that cleared; SumTTR/MaxTTR aggregate
	// their onset-to-clear latency.
	Recoveries int
	SumTTR     time.Duration
	MaxTTR     time.Duration

	open     bool
	onsetAt  int64
	detected bool
}

// Open reports whether a deadlock episode is live (an episode still
// open at the end of the run never recovered).
func (d *DeadlockTrack) Open() bool { return d.open }

// MeanTTR returns the mean time-to-recover over closed episodes.
func (d *DeadlockTrack) MeanTTR() time.Duration {
	if d.Recoveries == 0 {
		return 0
	}
	return d.SumTTR / time.Duration(d.Recoveries)
}

// TrackDeadlocks arms exact deadlock episode tracking. Must be called
// before Run. Returns the track, updated in place.
func (n *Network) TrackDeadlocks() *DeadlockTrack {
	n.dlTrack = &DeadlockTrack{FirstOnsetAt: -1}
	return n.dlTrack
}

// dlOnsetCheck opens an episode if a wait-for cycle now exists. Called
// at pause effects — the only transitions that can create a cycle.
func (n *Network) dlOnsetCheck() {
	d := n.dlTrack
	if d == nil || d.open || n.detectCycleQueues() == nil {
		return
	}
	d.open = true
	d.detected = false
	d.onsetAt = n.now
	d.Onsets++
	if d.FirstOnsetAt < 0 {
		d.FirstOnsetAt = time.Duration(n.now)
	}
}

// dlClearCheck closes the open episode if no cycle remains. Called at
// resume effects and after queue flushes / mitigation sweeps.
func (n *Network) dlClearCheck() {
	d := n.dlTrack
	if d == nil || !d.open || n.detectCycleQueues() != nil {
		return
	}
	d.open = false
	ttr := time.Duration(n.now - d.onsetAt)
	d.Recoveries++
	d.SumTTR += ttr
	if ttr > d.MaxTTR {
		d.MaxTTR = ttr
	}
	if n.tel != nil {
		n.tel.Histogram("sim_time_to_recover_seconds", telemetry.DurationBuckets()).
			ObserveDuration(int64(ttr))
	}
}

// --- Event-loop hooks -------------------------------------------------------

// putDTag parks a pause-frame tag in the side table and returns the
// evPFC arg encoding its slot (slot+1; arg 0 means "no tag", keeping
// detector-off event streams byte-identical to the goldens).
func (n *Network) putDTag(v uint64) int32 {
	var slot int32
	if k := len(n.dtagFree); k > 0 {
		slot = n.dtagFree[k-1]
		n.dtagFree = n.dtagFree[:k-1]
		n.dtags[slot] = v
	} else {
		slot = int32(len(n.dtags))
		n.dtags = append(n.dtags, v)
	}
	return slot + 1
}

// takeDTag recycles and returns the tag behind an evPFC arg.
func (n *Network) takeDTag(arg int32) uint64 {
	slot := arg - 1
	v := n.dtags[slot]
	n.dtagFree = append(n.dtagFree, slot)
	return v
}

// detPauseTag runs the engine's pause-sent bookkeeping when (rt, port,
// prio) asserts or releases PAUSE and returns the evPFC arg carrying
// the tag (0 when none travels: detector off, resumes, host peers).
func (n *Network) detPauseTag(rt *nodeRT, port, prio int, on bool) int32 {
	if n.det == nil || rt.isHost {
		return 0
	}
	if !on {
		n.det.eng.ResumeSent(int(rt.id), port, prio)
		return 0
	}
	tg := n.det.eng.PauseSent(int(rt.id), port, prio)
	if n.nodes[rt.ports[port].peer].isHost {
		return 0 // hosts run no detector; nothing to deliver
	}
	return n.putDTag(uint64(tg))
}

// detPFCEffect handles the detector and episode-tracking side of a PFC
// frame taking effect. Ordering matters: the onset check precedes tag
// processing (a detection at the cycle-completing pause samples TTD
// from that same instant), and the clear check follows the resume.
func (n *Network) detPFCEffect(nodeIdx int, rt *nodeRT, port, prio int, on bool, arg int32) {
	if on {
		n.dlOnsetCheck()
		if arg != 0 {
			tg := detect.Tag(n.takeDTag(arg))
			if n.det != nil && !rt.isHost {
				if d, ok := n.det.eng.PauseReceived(nodeIdx, port, prio, tg); ok {
					n.detHandle(d)
				}
			}
		}
		return
	}
	if n.det != nil && !rt.isHost {
		n.det.eng.ResumeReceived(nodeIdx, port, prio)
	}
	n.dlClearCheck()
}

// detTxDequeue unwinds hold accounting for a packet popped for
// transmission and stamps the tag it carries onward.
func (n *Network) detTxDequeue(nodeIdx, port, q int, pk *packet) {
	n.det.eng.Dequeue(nodeIdx, int(pk.inPort), int(pk.inPrio), port, q)
	pk.dtag = uint64(n.det.eng.PacketDeparture(nodeIdx, int(pk.inPort), int(pk.inPrio), detect.Tag(pk.dtag)))
}

// detArrival feeds a charged lossless arrival to the engine and handles
// a resulting detection. Called after the packet is enqueued, so a
// mitigation sweep sees it too.
func (n *Network) detArrival(nodeIdx, port, prio int, dtag uint64) {
	if d, ok := n.det.eng.PacketArrival(nodeIdx, port, prio, detect.Tag(dtag)); ok {
		n.detHandle(d)
	}
}

// detectorRefreshTick re-sends every still-asserted pause's tag to its
// upstream switch — the 802.1Qbb pause refresh, modeled only for the
// detector (it does not touch pause state). Deliveries honor the
// propagation delay.
func (n *Network) detectorRefreshTick(t *timerRT, slot int32) {
	for ni := range n.nodes {
		rt := &n.nodes[ni]
		if rt.isHost {
			continue
		}
		for pi := range rt.ports {
			prt := &rt.ports[pi]
			if n.nodes[prt.peer].isHost {
				continue
			}
			for prio := 1; prio < n.nQueues; prio++ {
				if !prt.pausedUpstream.has(prio) {
					continue
				}
				tg := n.det.eng.RefreshTag(ni, pi, prio)
				if tg == 0 {
					continue
				}
				peer, peerPort, p := int(prt.peer), int(prt.peerPort), prio
				n.scheduleCall(n.now+int64(n.cfg.PropDelay), func() {
					n.detDeliverTag(peer, peerPort, p, tg)
				})
			}
		}
	}
	n.schedule(event{at: n.now + t.period, kind: evTimer, arg: slot})
}

// detDeliverTag lands a refreshed pause tag at the upstream egress. A
// pause released while the refresh was in flight makes it a no-op.
func (n *Network) detDeliverTag(node, port, prio int, tg detect.Tag) {
	if n.det == nil {
		return
	}
	rt := &n.nodes[node]
	if rt.isHost || !rt.ports[port].paused.has(prio) {
		return
	}
	if d, ok := n.det.eng.PauseReceived(node, port, prio, tg); ok {
		n.detHandle(d)
	}
}

// detHandle is the single detection sink: stats, telemetry, trace, TTD
// sampling against the open episode, the false-positive oracle, and the
// configured mitigation.
func (n *Network) detHandle(d detect.Detection) {
	st := n.det.stats
	st.Detections++
	if d.Via == detect.ViaPacket {
		st.ViaPacket++
	} else {
		st.ViaPause++
	}
	if st.FirstDetectAt < 0 {
		st.FirstDetectAt = time.Duration(n.now)
	}
	real := n.detectCycleQueues() != nil
	if !real {
		st.FalsePositives++
	}
	if n.dlTrack != nil && n.dlTrack.open && !n.dlTrack.detected {
		n.dlTrack.detected = true
		ttd := time.Duration(n.now - n.dlTrack.onsetAt)
		st.TTDSamples++
		st.SumTTD += ttd
		if ttd > st.MaxTTD {
			st.MaxTTD = ttd
		}
		if n.tel != nil {
			n.tel.Histogram("sim_time_to_detect_seconds", telemetry.DurationBuckets()).
				ObserveDuration(int64(ttd))
		}
	}
	if n.tel != nil {
		n.tel.Counter("sim_detect_total").Inc()
		if !real {
			n.tel.Counter("sim_detect_false_positive_total").Inc()
		}
	}
	rt := &n.nodes[d.Node]
	n.trace(TraceEvent{Kind: "detect", Node: n.nodeName(rt.id),
		Peer: n.nodeName(rt.ports[d.Port].peer), Prio: d.Prio, Reason: d.Via})
	if n.det.cfg.Mitigation != MitigateNone {
		n.applyMitigation(d)
	}
}

// applyMitigation acts on a detection: it sweeps every egress queue of
// the detecting switch for packets charged to the origin ingress — the
// deadlock-initiating traffic — and drops or demotes exactly those.
// Packets charged elsewhere, and the frame already on the wire, are
// untouched.
func (n *Network) applyMitigation(d detect.Detection) {
	rt := &n.nodes[d.Node]
	op, oq := d.Port, d.Prio
	drop := n.det.cfg.Mitigation == MitigateDrop
	st := n.det.stats
	var pkts, bytes int64
	for pi := range rt.ports {
		prt := &rt.ports[pi]
		for q := 1; q < n.nQueues; q++ {
			f := &prt.egress[q]
			if f.empty() {
				continue
			}
			// Filter the queue in place: handles that stay are compacted
			// toward the head; the rest are dropped or, demoted, move to
			// the port's lossy queue.
			w := f.head
			for i := f.head; i < len(f.q); i++ {
				h := f.q[i]
				pk := &n.pkts.slots[h]
				if int(pk.inPort) != op || int(pk.inPrio) != oq {
					f.q[w] = h
					w++
					continue
				}
				f.bytes -= int64(pk.size)
				n.det.eng.Dequeue(d.Node, op, oq, pi, q)
				pkts++
				bytes += int64(pk.size)
				if drop {
					n.drops.DetectMitigation++
					st.PacketsDropped++
					st.BytesDropped += int64(pk.size)
					n.trace(TraceEvent{Kind: "drop", Node: n.nodeName(rt.id),
						Flow: pk.flow.spec.Name, Reason: "mitigate"})
					n.releaseIngress(rt, pk)
					n.pkts.release(h)
					continue
				}
				// Demote: release the lossless ingress claim (the shared
				// buffer stays charged until transmit), retag lossy and
				// requeue on the same port under the lossy cap.
				in := &rt.ports[op]
				in.inBytes[oq] -= int64(pk.size)
				pk.inPrio = 0
				pk.tag = int16(core.LossyTag)
				pk.dtag = 0
				if prt.egress[0].bytes+int64(pk.size) > n.cfg.LossyCap {
					n.drops.DetectMitigation++
					st.PacketsDropped++
					st.BytesDropped += int64(pk.size)
					rt.bufferUsed -= int64(pk.size)
					n.trace(TraceEvent{Kind: "drop", Node: n.nodeName(rt.id),
						Flow: pk.flow.spec.Name, Reason: "mitigate"})
					n.pkts.release(h)
					continue
				}
				st.PacketsDemoted++
				n.trace(TraceEvent{Kind: "demote", Node: n.nodeName(rt.id),
					Flow: pk.flow.spec.Name})
				prt.enqueue(0, h, pk.size)
			}
			f.q = f.q[:w]
			if f.empty() {
				f.reset()
				prt.nonEmpty.clear(q)
			}
		}
	}
	st.Mitigations++
	action := "demote"
	if drop {
		action = "drop"
	}
	n.trace(TraceEvent{Kind: "mitigate", Node: n.nodeName(rt.id),
		Prio: oq, Reason: action, Depth: bytes})
	if n.tel != nil {
		n.tel.Counter("sim_mitigation_packets_total").Add(pkts)
	}
	if !drop {
		// The drop path's releaseIngress already re-checks Xon per packet;
		// the demote path released the claims manually, so check once here.
		in := &rt.ports[op]
		if in.pausedUpstream.has(oq) && in.inBytes[oq] <= n.xon(rt) {
			in.pausedUpstream.clear(oq)
			n.sendPFC(rt, op, oq, false)
		}
	}
	for pi := range rt.ports {
		n.tryTx(d.Node, pi)
	}
	n.dlClearCheck()
}
