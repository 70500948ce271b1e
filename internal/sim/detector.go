package sim

import (
	"time"

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
)

// DetectorConfig tunes the in-switch detector.
type DetectorConfig struct {
	// Mitigation is the reaction hook; MitigateNone observes only.
	Mitigation Mitigation
}

// detRefreshInterval is the PFC pause-refresh cadence carrying detection
// tags backward along still-asserted pauses (802.1Qbb pauses expire and
// are re-sent; the simulator's pauses are otherwise eternal, so the
// detector models the refresh itself).
const detRefreshInterval = 100 * time.Microsecond

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
	// minus the onset time of the open deadlock episode (requires the
	// episode tracker, see TrackDeadlocks; only the first detection per
	// episode samples).
	TTDSamples int
	SumTTD     time.Duration
	MaxTTD     time.Duration
	// Mitigations counts mitigation sweeps; PacketsDropped/BytesDropped
	// the packets they sacrificed.
	Mitigations    int
	PacketsDropped int64
	BytesDropped   int64
	// The tag machine's activity: Origins counts fresh tags minted (a
	// pause or refresh with no wait-for edge to inherit from), Inherited
	// the pauses and refreshes that took a downstream tag, Adopted the
	// foreign tags picked up from arriving packets, and Refreshes the
	// pause-refresh re-evaluations.
	Origins   int64
	Inherited int64
	Adopted   int64
	Refreshes int64
}

// MeanTTD returns the mean time-to-detect over sampled episodes.
func (s *DetectorStats) MeanTTD() time.Duration {
	if s.TTDSamples == 0 {
		return 0
	}
	return s.SumTTD / time.Duration(s.TTDSamples)
}

// EnableDetector arms the DCFIT-style in-switch detector on every
// switch. Must be called before Run. Returns the stats structure,
// updated in place. Pair with TrackDeadlocks for time-to-detect and
// time-to-recover accounting.
func (n *Network) EnableDetector(cfg DetectorConfig) *DetectorStats {
	n.det = newDetector(n.nodes, n.nQueues, cfg)
	p := int64(detRefreshInterval)
	n.addTimer(timerRT{kind: timerDetectRefresh, period: p}, n.now+p)
	return n.det.stats
}

// --- The tag machine --------------------------------------------------------
//
// The detector follows DCFIT (PAPERS.md, Wu & Ng): the switch that
// first triggers a PFC PAUSE stamps a detection tag, the tag travels
// with the congestion — on the pause frames that chain backward
// through the wait-for graph and in the metadata of packets leaving
// paused ingresses — and a deadlock is declared the moment a switch
// sees a tag it minted come back while the pause episode that minted it
// is still open. Detection is local to each switch: its tag state plus
// what the switch itself holds (its queues and pause masks).
//
//   - Pause frames. An ingress asserting PAUSE inherits the tag of a
//     paused egress queue holding packets charged to it (the wait-for
//     edge the pause just extended) or, when there is none, mints a
//     fresh tag: this switch is the initial trigger of the chain. Real
//     PFC re-sends PAUSE before its quanta expire; the simulator models
//     that refresh for the detector, so a chain whose edges asserted
//     out of causal order still converges on one tag.
//   - Packets. A packet leaving through a paused ingress carries a tag
//     downstream; a hop whose charged ingress is not paused clears it
//     (the congestion chain is broken there).
//
// A tag names (creator node, ingress port, priority, epoch). The epoch
// advances whenever the ingress resumes and at each detection, so a tag
// fires only within the pause episode that minted it, and one cycle is
// reported once per round trip, not once per packet.

// detTag is a detection tag; 0 means "no tag". Layout: bit 63 marks
// validity (so node 0, port 0 still yields a nonzero tag), bits 32..55
// the epoch, 16..31 the node, 4..15 the port, 0..3 the priority.
type detTag uint64

const (
	detTagValid detTag = 1 << 63
	// detEpochMask is the epoch's 24-bit field. The per-ingress counter
	// wraps inside it, so the stored epoch always equals the one its
	// tags carry.
	detEpochMask = 1<<24 - 1
)

// makeDetTag packs a tag. Arguments must fit their fields (node < 2^16,
// port < 2^12, prio < 2^4); the simulator's fabrics are far below that.
func makeDetTag(node, port, prio int, epoch uint32) detTag {
	return detTagValid |
		detTag(epoch&detEpochMask)<<32 |
		detTag(node&0xffff)<<16 |
		detTag(port&0xfff)<<4 |
		detTag(prio&0xf)
}

func (t detTag) node() int     { return int(t >> 16 & 0xffff) }
func (t detTag) port() int     { return int(t >> 4 & 0xfff) }
func (t detTag) prio() int     { return int(t & 0xf) }
func (t detTag) epoch() uint32 { return uint32(t >> 32 & detEpochMask) }

// Transport media a returning tag can arrive by: the detect trace
// event's reason.
const (
	viaPacket = "packet"
	viaPause  = "pause"
)

// detIngress is one ingress (port, priority)'s tag state: the tag its
// asserted pause carries, whether it minted that tag, a foreign tag
// adopted from passing packets, and the pause-episode epoch. Whether
// the ingress is paused is its port's pausedUpstream bit; an unpaused
// ingress holds only its epoch.
type detIngress struct {
	origin bool
	tag    detTag
	carry  detTag
	epoch  uint32
}

// close ends the pause episode: every outstanding copy of its tags goes
// stale.
func (st *detIngress) close() {
	*st = detIngress{epoch: (st.epoch + 1) & detEpochMask}
}

// detector is the fabric-wide tag state, indexed [node][port*nQ+prio].
// Its methods take the switch they run on, whose pausedUpstream masks
// say which ingresses are paused; the caller hands in what needs a
// queue scan (Network.inheritable).
type detector struct {
	cfg   DetectorConfig
	stats *DetectorStats
	nQ    int
	in    [][]detIngress
	// eg records, per egress queue, the tag carried by the downstream
	// pause currently asserted against it (0 = none).
	eg [][]detTag
	// confirmed is the global wait-for scan's verdict on the detection
	// being handled; the flight recorder reads it to classify the
	// detect event.
	confirmed bool
}

func newDetector(nodes []nodeRT, nQ int, cfg DetectorConfig) *detector {
	d := &detector{cfg: cfg, stats: &DetectorStats{FirstDetectAt: -1}, nQ: nQ,
		in: make([][]detIngress, len(nodes)), eg: make([][]detTag, len(nodes))}
	for i := range nodes {
		d.in[i] = make([]detIngress, len(nodes[i].ports)*nQ)
		d.eg[i] = make([]detTag, len(nodes[i].ports)*nQ)
	}
	return d
}

func (d *detector) ingress(rt *nodeRT, port, prio int) *detIngress {
	return &d.in[rt.id][port*d.nQ+prio]
}

// retag chooses the tag a paused ingress's pause (or its refresh)
// carries and returns it. cand is the tag inheritable from a downstream
// wait-for edge (0 = none). A foreign candidate replaces the current
// tag — what lets two chains that asserted concurrently, both minting,
// converge on one tag that can complete the round trip; with none, an
// ingress that inherited becomes a chain head again and mints. An
// ingress asserting PAUSE holds no tag yet, so the same choice makes it
// inherit or mint.
func (d *detector) retag(rt *nodeRT, port, prio int, cand detTag) detTag {
	st := d.ingress(rt, port, prio)
	node := int(rt.id)
	if cand != 0 && cand.node() != node {
		if st.tag != cand {
			st.tag, st.origin = cand, false
			d.stats.Inherited++
		}
	} else if !st.origin {
		st.tag, st.origin = makeDetTag(node, port, prio, st.epoch), true
		d.stats.Origins++
	}
	return st.tag
}

// pauseReceived records a pause (or its refresh) carrying tg taking
// effect at rt's egress (port, prio), and applies the detection rule.
func (d *detector) pauseReceived(rt *nodeRT, port, prio int, tg detTag) bool {
	d.eg[rt.id][port*d.nQ+prio] = tg
	return d.fires(rt, tg)
}

// fires is the detection rule: tg fires iff rt minted it and the
// ingress it names is still paused in the minting epoch. A detection
// retires the epoch — still paused, so the ingress re-arms as an
// origin and the same cycle cannot fire again until a fresh tag makes
// the round trip.
func (d *detector) fires(rt *nodeRT, tg detTag) bool {
	if tg == 0 || tg.node() != int(rt.id) || !rt.ports[tg.port()].pausedUpstream.has(tg.prio()) {
		return false
	}
	st := d.ingress(rt, tg.port(), tg.prio())
	if st.epoch != tg.epoch() {
		return false
	}
	st.epoch = (st.epoch + 1) & detEpochMask
	st.tag, st.origin, st.carry = makeDetTag(int(rt.id), tg.port(), tg.prio(), st.epoch), true, 0
	return true
}

// departure returns the tag a packet charged to ingress (inPort, inPrio)
// carries onward from rt, given the one it arrived with. An unpaused
// ingress breaks the chain and clears it; a paused one propagates, in
// preference order, a foreign carried tag, its adopted tag, then its
// own pause tag.
func (d *detector) departure(rt *nodeRT, inPort, inPrio int, carried detTag) detTag {
	if !rt.ports[inPort].pausedUpstream.has(inPrio) {
		return 0
	}
	if carried != 0 && carried.node() != int(rt.id) {
		return carried
	}
	st := d.ingress(rt, inPort, inPrio)
	if st.carry != 0 {
		return st.carry
	}
	return st.tag
}

// arrival handles a nonzero tag arriving at rt on a packet charged to
// ingress (inPort, inPrio): its own live tag is a detection; a paused
// ingress adopts the first foreign tag into its carry slot
// (deterministic, and the oldest chain keeps walking).
func (d *detector) arrival(rt *nodeRT, inPort, inPrio int, carried detTag) bool {
	if d.fires(rt, carried) {
		return true
	}
	if carried.node() != int(rt.id) && rt.ports[inPort].pausedUpstream.has(inPrio) {
		if st := d.ingress(rt, inPort, inPrio); st.carry == 0 {
			st.carry = carried
			d.stats.Adopted++
		}
	}
	return false
}

// reset forgets every pause rt asserted, as a reboot does, and retires
// every ingress's epoch, so no tag minted before the reboot can fire
// after it. The egress pause records survive: those claims live at the
// downstream peers, which resume on their own.
func (d *detector) reset(rt *nodeRT) {
	for i := range d.in[rt.id] {
		d.in[rt.id][i].close()
	}
}

// --- Deadlock episode tracking ---------------------------------------------

// DeadlockTrack measures deadlock episodes exactly: onset when a
// wait-for cycle first appears (checked at every PFC pause effect) and
// recovery when it disappears (checked at resume effects and directly
// after every cycle-breaking intervention). It is the simulator's one
// onset: the trace's "deadlock" event, sim_deadlock_onsets_total and
// sim_time_to_deadlock_seconds are all emitted where it opens an
// episode. It powers the matrix's time-to-detect, time-to-recover and
// "unrecovered" verdicts, and runs whenever a tracer, flight recorder,
// telemetry or TrackDeadlocks arms it; a bare engine scans nothing.
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

// TrackDeadlocks arms exact deadlock episode tracking and returns the
// network's one track, updated in place. Must be called before Run;
// calling it again (or after SetTracer, EnableFlightRecorder or
// SetTelemetry, which arm it too) returns the same track.
func (n *Network) TrackDeadlocks() *DeadlockTrack {
	if n.dlTrack == nil {
		n.dlTrack = &DeadlockTrack{FirstOnsetAt: -1}
	}
	return n.dlTrack
}

// dlOnsetCheck opens an episode if a wait-for cycle now exists. Called
// at pause effects — the only transitions that can create a cycle —
// with (rt, port) the port the PAUSE just stopped; its peer sent the
// PAUSE that closed the cycle. The onset telemetry and the trace's
// "deadlock" event (which the flight recorder's onset trigger rides)
// are emitted here and nowhere else.
func (n *Network) dlOnsetCheck(rt *nodeRT, port int) {
	d := n.dlTrack
	if d == nil || d.open {
		return
	}
	cyc := n.detectCycleQueues()
	if cyc == nil {
		return
	}
	d.open = true
	d.detected = false
	d.onsetAt = n.now
	d.Onsets++
	first := d.FirstOnsetAt < 0
	if first {
		d.FirstOnsetAt = time.Duration(n.now)
	}
	if n.tel != nil {
		n.tel.Counter("sim_deadlock_onsets_total").Inc()
		if first {
			n.tel.Gauge("sim_time_to_deadlock_seconds").Set(d.FirstOnsetAt.Seconds())
		}
	}
	if n.tracer != nil {
		n.trace(TraceEvent{Kind: "deadlock", Node: n.nodeName(rt.ports[port].peer), Cycle: n.cycleStrings(cyc)})
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
func (n *Network) putDTag(v detTag) int32 {
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
func (n *Network) takeDTag(arg int32) detTag {
	slot := arg - 1
	v := n.dtags[slot]
	n.dtagFree = append(n.dtagFree, slot)
	return v
}

// inheritable returns the tag ingress (port, prio) of rt inherits: that
// of the first egress queue, in ascending (port, prio) order, that is
// paused with a recorded pause tag and holds a packet charged to the
// ingress — the wait-for edge the ingress's pause extends. 0 when there
// is none.
func (n *Network) inheritable(rt *nodeRT, port, prio int) detTag {
	eg := n.det.eg[rt.id]
	for out := range rt.ports {
		prt := &rt.ports[out]
		stuck := prt.stuck()
		for q := 1; q < n.nQueues; q++ {
			if tg := eg[out*n.nQueues+q]; tg != 0 && stuck.has(q) && n.holds(prt, q, port, prio) {
				return tg
			}
		}
	}
	return 0
}

// detPauseTag runs the detector's side of (rt, port, prio) asserting or
// releasing PAUSE and returns the evPFC arg carrying the tag (0 when
// none travels: detector off, resumes, host peers).
func (n *Network) detPauseTag(rt *nodeRT, port, prio int, on bool) int32 {
	if n.det == nil || rt.isHost {
		return 0
	}
	if !on {
		n.det.ingress(rt, port, prio).close()
		return 0
	}
	tg := n.det.retag(rt, port, prio, n.inheritable(rt, port, prio))
	if n.nodes[rt.ports[port].peer].isHost {
		return 0 // hosts run no detector; nothing to deliver
	}
	return n.putDTag(tg)
}

// detPFCEffect handles the detector and episode-tracking side of a PFC
// frame taking effect. Ordering matters: the onset check precedes tag
// processing (a detection at the cycle-completing pause samples TTD
// from that same instant), and the clear check follows the resume.
func (n *Network) detPFCEffect(rt *nodeRT, port, prio int, on bool, arg int32) {
	if on {
		n.dlOnsetCheck(rt, port)
		// A tag travels only between detector-armed switches.
		if arg != 0 {
			if tg := n.takeDTag(arg); n.det.pauseReceived(rt, port, prio, tg) {
				n.detHandle(rt, tg, viaPause)
			}
		}
		return
	}
	if n.det != nil {
		n.det.eg[rt.id][port*n.nQueues+prio] = 0
	}
	n.dlClearCheck()
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
				n.det.stats.Refreshes++
				tg := n.det.retag(rt, pi, prio, n.inheritable(rt, pi, prio))
				peer, peerPort, p := prt.peer, int(prt.peerPort), prio
				n.scheduleCall(n.now+int64(n.cfg.PropDelay), func() {
					n.detDeliverTag(&n.nodes[peer], peerPort, p, tg)
				})
			}
		}
	}
	n.schedule(event{at: n.now + t.period, kind: evTimer, arg: slot})
}

// detDeliverTag lands a refreshed pause tag at the upstream egress. A
// pause released while the refresh was in flight makes it a no-op.
func (n *Network) detDeliverTag(rt *nodeRT, port, prio int, tg detTag) {
	if rt.ports[port].paused.has(prio) && n.det.pauseReceived(rt, port, prio, tg) {
		n.detHandle(rt, tg, viaPause)
	}
}

// detHandle is the single detection sink: stats, telemetry, trace, TTD
// sampling against the open episode, the false-positive oracle, and the
// configured mitigation. tg is rt's own returned tag; via its medium.
func (n *Network) detHandle(rt *nodeRT, tg detTag, via string) {
	st := n.det.stats
	st.Detections++
	if via == viaPacket {
		st.ViaPacket++
	} else {
		st.ViaPause++
	}
	if st.FirstDetectAt < 0 {
		st.FirstDetectAt = time.Duration(n.now)
	}
	real := n.detectCycleQueues() != nil
	n.det.confirmed = real
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
	n.trace(TraceEvent{Kind: "detect", Node: n.nodeName(rt.id),
		Peer: n.nodeName(rt.ports[tg.port()].peer), Prio: tg.prio(), Reason: via})
	if n.det.cfg.Mitigation != MitigateNone {
		n.applyMitigation(rt, tg.port(), tg.prio())
	}
}

// applyMitigation acts on a detection: it sweeps every egress queue of
// the detecting switch for packets charged to the origin ingress — the
// deadlock-initiating traffic — and drops exactly those. Packets charged
// elsewhere, and the frame already on the wire, are untouched.
func (n *Network) applyMitigation(rt *nodeRT, op, oq int) {
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
			// toward the head; the rest are dropped.
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
				pkts++
				bytes += int64(pk.size)
				n.drops.DetectMitigation++
				st.PacketsDropped++
				st.BytesDropped += int64(pk.size)
				n.trace(TraceEvent{Kind: "drop", Node: n.nodeName(rt.id),
					Flow: pk.flow.spec.Name, Reason: "mitigate"})
				n.releaseIngress(rt, pk)
				n.pkts.release(h)
			}
			f.q = f.q[:w]
			if f.empty() {
				f.reset()
				prt.nonEmpty.clear(q)
			}
		}
	}
	st.Mitigations++
	n.trace(TraceEvent{Kind: "mitigate", Node: n.nodeName(rt.id),
		Prio: oq, Reason: "drop", Depth: bytes})
	if n.tel != nil {
		n.tel.Counter("sim_mitigation_packets_total").Add(pkts)
	}
	for pi := range rt.ports {
		n.tryTx(int(rt.id), pi)
	}
	n.dlClearCheck()
}
