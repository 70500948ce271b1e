package sim

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// packet is one MTU-sized frame in flight or queued.
type packet struct {
	flow *Flow
	size int32
	tag  int16 // current tag; core.LossyTag when demoted
	ttl  int16
	hop  int16 // arrival index along a pinned path (0 = at the source)
	ecn  bool  // congestion-experienced mark (DCQCN)

	born int64 // injection time, for delivery-latency accounting

	// Ingress bookkeeping at the switch currently holding the packet:
	// which (port, priority) counter it is charged against.
	inPort int16
	inPrio int16

	// dtag is the DCFIT-style detection tag riding in the packet
	// metadata (0 = none; see internal/detect). Stamped at dequeue-for-
	// transmit when the charged ingress is paused.
	dtag uint64

	// rule is 1 + the dense TCAM rule ID that last classified the
	// packet (0: a §7 default action decided, or no flight recorder is
	// armed — the only consumer of this attribution).
	rule int32
}

// fifo is an allocation-friendly queue of packet handles. bytes is the
// total size of the packets behind them, kept by whoever pushes and pops
// (portRT.enqueue, Network.dequeue): the queue itself never looks at a
// packet.
type fifo struct {
	q     []int32
	head  int
	bytes int64
}

// fifoReleaseCap is the backing-array size (in handles) beyond which a
// drained queue frees its storage instead of keeping it. Steady-state
// queues stay far below it and recycle their array forever; only a queue
// that ballooned during a burst (deadlock, incast) gives the memory back
// once it drains, so multi-hour soaks don't hold peak-burst capacity on
// every port.
const fifoReleaseCap = 512

func (f *fifo) push(h int32) { f.q = append(f.q, h) }

func (f *fifo) pop() int32 {
	h := f.q[f.head]
	f.head++
	if f.head >= len(f.q) {
		f.reset()
	} else if f.head > 64 && f.head*2 > len(f.q) {
		n := copy(f.q, f.q[f.head:])
		f.q = f.q[:n]
		f.head = 0
	}
	return h
}

// reset rewinds a drained queue, giving back a ballooned backing array.
func (f *fifo) reset() {
	f.head = 0
	if cap(f.q) > fifoReleaseCap {
		f.q = nil
	} else {
		f.q = f.q[:0]
	}
}

func (f *fifo) empty() bool { return f.head >= len(f.q) }

func (f *fifo) len() int { return len(f.q) - f.head }

// queued returns the handles waiting, oldest first.
func (f *fifo) queued() []int32 { return f.q[f.head:] }

// maxQueues is the number of egress queues a port can have: the eight
// priorities of 802.1Qbb, queue 0 being the lossy class. It is what lets
// per-priority flags be one-byte masks and per-priority state fixed
// arrays inside portRT; New rejects a Config that needs more.
const maxQueues = 8

// prioMask has bit q set when a per-priority condition holds for queue q,
// 0 <= q < maxQueues (the &7 below only tells the compiler so).
type prioMask uint8

func (m prioMask) has(q int) bool { return m>>(uint(q)&7)&1 != 0 }
func (m *prioMask) set(q int)     { *m |= 1 << (uint(q) & 7) }
func (m *prioMask) clear(q int)   { *m &^= 1 << (uint(q) & 7) }

// portRT is the runtime state of one node port. The scalars and masks a
// hop reads come first, then the per-priority arrays, hottest first, so
// that with the usual handful of priorities the ingress side of a hop
// touches the leading cache line and the egress side that line plus the
// one holding its FIFO.
type portRT struct {
	peer     topology.NodeID
	peerPort int16

	// Egress: transmitter state, the round-robin pointer, and two masks —
	// which FIFOs hold packets and which priorities the downstream peer
	// has PAUSEd. nonEmpty is maintained by enqueue and dequeue, the only
	// FIFO writers apart from applyMitigation's in-place filter.
	txBusy   bool
	rrNext   uint8
	nonEmpty prioMask
	paused   prioMask
	// pausedUpstream: the priorities for which we have PAUSEd the upstream.
	pausedUpstream prioMask
	txPkt          int32 // handle of the frame being serialized, for ingress release

	maxInBytes int64 // high-water mark, for headroom verification
	// inBytes is the ingress accounting per priority.
	inBytes [maxQueues]int64
	// egress is one FIFO per priority (0 = lossy).
	egress [maxQueues]fifo
	// pauseStart records, per priority, the sim time the current PAUSE was
	// asserted (telemetry: pause-duration histograms). Valid only while
	// pausedUpstream is set.
	pauseStart [maxQueues]int64
}

// enqueue appends the packet behind h, size bytes long, to egress queue q.
func (prt *portRT) enqueue(q int, h, size int32) {
	f := &prt.egress[q]
	f.push(h)
	f.bytes += int64(size)
	prt.nonEmpty.set(q)
}

// dequeue removes the oldest packet of the port's egress queue q, which
// must not be empty.
func (n *Network) dequeue(prt *portRT, q int) (int32, *packet) {
	f := &prt.egress[q]
	h := f.pop()
	pk := &n.pkts.slots[h]
	f.bytes -= int64(pk.size)
	if f.empty() {
		prt.nonEmpty.clear(q)
	}
	return h, pk
}

// arbitrate picks the egress queue to serve next among nQueues, or -1 if
// none is eligible, and returns the round-robin pointer to store. A
// queue is eligible when it holds a packet and is not paused; the lossy
// queue 0 is never paused. Round-robin serves the first eligible queue
// at or after rrNext, wrapping, and moves the pointer past it; strict
// priority serves the highest eligible queue and leaves the pointer.
func arbitrate(nonEmpty, paused prioMask, rrNext uint8, nQueues int, strict bool) (q int, next uint8) {
	ready := uint32(nonEmpty &^ (paused &^ 1))
	if ready == 0 {
		return -1, rrNext
	}
	if strict {
		return bits.Len32(ready) - 1, rrNext
	}
	// Two copies of the mask side by side turn the wrapped scan into one
	// shift and one count.
	q = int(rrNext) + bits.TrailingZeros32((ready|ready<<(uint(nQueues)&15))>>(rrNext&7))
	if q >= nQueues {
		q -= nQueues
	}
	if next = uint8(q + 1); int(next) == nQueues {
		next = 0
	}
	return q, next
}

// nodeRT is the runtime state of one node.
type nodeRT struct {
	id     topology.NodeID
	isHost bool
	ports  []portRT
	// bufferUsed is the switch's shared-buffer occupancy (both classes),
	// driving the dynamic threshold.
	bufferUsed int64
	// Host state: flows sourced here and a round-robin pointer.
	flows  []*Flow
	nextFl int
}

// DropStats counts packet losses by cause.
type DropStats struct {
	TTLExpired    int64
	NoRoute       int64
	LossyOverflow int64
	// HeadroomViolation counts lossless packets that arrived above
	// Xoff+headroom — zero whenever thresholds are configured correctly;
	// the simulator drops them like a real switch would.
	HeadroomViolation int64
	// SwitchReboot counts packets lost to a power-cycled switch. Kept
	// separate from HeadroomViolation: reboot losses are expected under
	// chaos and must not trip the lossless-drop invariant.
	SwitchReboot int64
	// RecoveryFlush counts lossless packets deliberately sacrificed by
	// the detect-and-break recovery monitor (EnableRecovery) to break a
	// wait-for cycle. Like SwitchReboot, these are intentional losses:
	// visible in Total and the watchdog, excluded from the lossless-drop
	// invariant.
	RecoveryFlush int64
	// DetectMitigation counts lossless packets the in-switch detector's
	// mitigation hook dropped (MitigateDrop, or a demote that overflowed
	// the lossy queue). Same contract as RecoveryFlush.
	DetectMitigation int64
}

// Total returns all drops.
func (d DropStats) Total() int64 {
	return d.TTLExpired + d.NoRoute + d.LossyOverflow + d.HeadroomViolation +
		d.SwitchReboot + d.RecoveryFlush + d.DetectMitigation
}

// Network is one simulation instance.
type Network struct {
	g      *topology.Graph
	tables *routing.Tables
	cfg    Config
	// nQueues is cfg.MaxPriority+1, the egress queues per port.
	nQueues int

	rules        *core.Ruleset // nil: Tagger disabled (single class)
	legacyEgress bool          // Figure 8a mode: egress queue by OLD tag

	now        int64
	seq        int64
	events     scheduler
	dispatched [numEventKinds]int64

	// fwd and cls memoize the packet path's two table lookups (memo.go).
	fwd fwdMemo
	cls classMemo

	// pkts owns every packet in the fabric; calls/callFree and timers are
	// the side tables behind evCall and evTimer events (see event.go).
	pkts     packetSlab
	calls    []func()
	callFree []int32
	timers   []timerRT

	nodes []nodeRT
	flows []*Flow

	drops        DropStats
	PauseFrames  int64
	ResumeFrames int64

	// debugPFC, when set, observes every PAUSE/RESUME emission (tests).
	debugPFC func(from topology.NodeID, port, prio int, on bool)

	// dcqcn, when non-nil, enables congestion control (see dcqcn.go).
	dcqcn *dcqcnState

	// tracer, when non-nil, observes pauses, drops, demotions and
	// deadlock onsets (see trace.go).
	tracer     Tracer
	inDeadlock bool

	// flightrec, when non-nil, is the armed incident flight recorder
	// (EnableFlightRecorder, see flightrec.go); it also rides the tracer
	// chain.
	flightrec *FlightRecorder

	// tel, when non-nil, receives the simulator's operational metrics:
	// per-link PFC pause-duration histograms, lossless ingress queue
	// depths, and time-to-first-deadlock (see SetTelemetry).
	tel *telemetry.Registry

	// det, when non-nil, is the armed in-switch deadlock detector
	// (EnableDetector, see detector.go); dtags/dtagFree is the side
	// table parking detection tags behind evPFC args.
	det      *detState
	dtags    []uint64
	dtagFree []int32

	// dlTrack, when non-nil, measures exact deadlock episodes
	// (TrackDeadlocks): onset/clear at PFC effects and interventions.
	dlTrack *DeadlockTrack
}

// New builds a simulator over the topology and forwarding tables. The
// tables object is referenced, not copied: scenario code may override
// entries mid-run via At callbacks.
func New(g *topology.Graph, tables *routing.Tables, cfg Config) *Network {
	if cfg.MaxPriority < 0 || cfg.MaxPriority >= maxQueues {
		panic(fmt.Sprintf("sim: Config.MaxPriority = %d, want 0..%d: a port has the %d queues of 802.1Qbb, queue 0 lossy",
			cfg.MaxPriority, maxQueues-1, maxQueues))
	}
	n := &Network{g: g, tables: tables, cfg: cfg, nQueues: cfg.MaxPriority + 1}
	n.nodes = make([]nodeRT, g.NumNodes())
	n.fwd.rows = make([][][]int, len(n.nodes))
	n.cls.rows = make([][]classEntry, len(n.nodes))
	for i := range n.nodes {
		node := g.Node(topology.NodeID(i))
		rt := &n.nodes[i]
		rt.id = node.ID
		rt.isHost = node.Kind == topology.KindHost
		rt.ports = make([]portRT, len(node.Ports))
		for pi, pid := range node.Ports {
			p := g.Port(pid)
			rt.ports[pi] = portRT{
				peer:     p.Peer,
				peerPort: int16(g.PortToPeer(p.Peer, node.ID)),
			}
		}
	}
	return n
}

// InstallTagger enables the Tagger pipeline with the given rules; nil
// disables it (all traffic rides its NIC-stamped priority unchanged —
// the "without Tagger" baseline).
func (n *Network) InstallTagger(rs *core.Ruleset) {
	n.rules = rs
	n.cls.drop()
}

// SetLegacyEgress selects the broken §7 behavior where the egress queue
// is chosen by the packet's OLD tag (Figure 8a). Only meaningful
// with a ruleset installed.
func (n *Network) SetLegacyEgress(v bool) { n.legacyEgress = v }

// SetTelemetry points the simulator's operational metrics at the given
// registry (nil disables them, the default). The simulator records:
//
//	sim_pause_frames_total / sim_resume_frames_total  counters
//	sim_pause_duration_seconds{link}                  histogram, per pausing link
//	sim_queue_depth_bytes{node}                       histogram, lossless ingress
//	                                                  occupancy at PFC transitions
//	sim_deadlock_onsets_total                         counter
//	sim_time_to_deadlock_seconds                      gauge, first onset this run
//
// Enabling telemetry also arms deadlock-onset detection on pause
// emission (normally armed only when a tracer is attached).
func (n *Network) SetTelemetry(reg *telemetry.Registry) { n.tel = reg }

// Graph returns the topology.
func (n *Network) Graph() *topology.Graph { return n.g }

// Tables returns the live forwarding tables (scenarios may override).
func (n *Network) Tables() *routing.Tables { return n.tables }

// Drops returns the loss counters.
func (n *Network) Drops() DropStats { return n.drops }

// Now returns the current simulation time.
func (n *Network) Now() time.Duration { return time.Duration(n.now) }

// At schedules fn to run at simulation time t (it must not be earlier
// than the current time when Run processes it).
func (n *Network) At(t time.Duration, fn func()) {
	n.scheduleCall(int64(t), fn)
}

// Run processes events until the given simulation time.
func (n *Network) Run(until time.Duration) {
	limit := int64(until)
	var e event
	for n.events.pop(limit, &e) {
		if e.at < n.now {
			panic(fmt.Sprintf("sim: time went backwards: %d < %d", e.at, n.now))
		}
		n.now = e.at
		n.dispatched[e.kind]++
		switch e.kind {
		case evArrive:
			n.arrive(int(e.node), int(e.port), e.arg)
		case evTxDone:
			n.txDone(int(e.node), int(e.port))
		case evPFC:
			n.pfcEffect(int(e.node), int(e.port), int(e.prio), e.on, e.arg)
		case evFlowKick:
			n.tryHostTx(int(e.node), int(e.port))
		case evCall:
			n.runCall(e.arg)
		case evTimer:
			n.runTimer(e.arg)
		case evCNP:
			n.applyCNP(e.arg)
		}
	}
	if n.now < limit {
		n.now = limit
	}
}

// nodeIdx is a small helper converting NodeID to the runtime index.
func (n *Network) rt(id topology.NodeID) *nodeRT { return &n.nodes[id] }

// --- Packet arrival and the switch pipeline --------------------------------

// arrive runs the switch pipeline on the packet behind handle h, which
// either joins an egress queue or leaves the fabric here (delivered or
// dropped, its slot released).
func (n *Network) arrive(nodeIdx, port int, h int32) {
	rt := &n.nodes[nodeIdx]
	pk := &n.pkts.slots[h]
	if rt.isHost {
		n.deliver(topology.NodeID(nodeIdx), pk)
		n.pkts.release(h)
		return
	}
	id := rt.id

	// TTL.
	pk.ttl--
	if pk.ttl <= 0 {
		n.drops.TTLExpired++
		n.dropArrival(id, h, "ttl")
		return
	}

	// Forwarding lookup: pinned flows follow their explicit path, all
	// other traffic uses the (possibly overridden) tables with ECMP.
	pk.hop++
	var out int
	if pin := pk.flow.spec.Pin; pin != nil {
		if int(pk.hop)+1 >= len(pin) || pin[pk.hop] != id {
			n.drops.NoRoute++ // pin desynchronized (cannot happen for valid pins)
			n.dropArrival(id, h, "no-route")
			return
		}
		out = int(pk.flow.pinOut[pk.hop])
	} else {
		hops := n.nextHops(id, pk.flow.spec.Dst)
		if len(hops) == 0 {
			n.drops.NoRoute++
			n.dropArrival(id, h, "no-route")
			return
		}
		out = hops[0]
		if len(hops) > 1 {
			out = hops[ecmpPick(pk.flow.hash, uint64(id), len(hops))]
		}
	}

	// Tagger pipeline: ingress priority by current tag, rewrite, egress
	// priority by the new tag (or the old one in legacy mode).
	inPrio := n.prioOf(int(pk.tag))
	newTag := int(pk.tag)
	if n.rules != nil {
		var rid int
		newTag, rid = n.classify(id, newTag, port, out)
		if n.flightrec != nil {
			pk.rule = int32(rid + 1)
		}
	}
	egPrio := n.prioOf(newTag)
	if inPrio != 0 && egPrio == 0 {
		n.trace(TraceEvent{Kind: "demote", Node: n.nodeName(id), Flow: pk.flow.spec.Name})
	}
	if n.legacyEgress && inPrio != 0 {
		egPrio = inPrio
	}
	pk.tag = int16(newTag)

	prt := &rt.ports[port]
	eg := &rt.ports[out]

	if inPrio == 0 {
		// Lossy admission: bounded per egress queue.
		if eg.egress[0].bytes+int64(pk.size) > n.cfg.LossyCap {
			n.drops.LossyOverflow++
			n.dropArrival(id, h, "lossy-overflow")
			return
		}
	} else {
		// Lossless admission: headroom must absorb it; beyond that the
		// configuration was wrong and the packet drops (and is counted).
		if prt.inBytes[inPrio]+int64(pk.size) > n.cfg.PFC.XoffThreshold+n.cfg.PFC.Headroom {
			n.drops.HeadroomViolation++
			n.dropArrival(id, h, "headroom")
			return
		}
	}

	// Charge the shared buffer and the ingress counter (lossless only;
	// lossy queues never generate PFC and are bounded at egress).
	rt.bufferUsed += int64(pk.size)
	pk.inPort = int16(port)
	pk.inPrio = int16(inPrio)
	if inPrio != 0 {
		prt.inBytes[inPrio] += int64(pk.size)
		if prt.inBytes[inPrio] > prt.maxInBytes {
			prt.maxInBytes = prt.inBytes[inPrio]
		}
		if !prt.pausedUpstream.has(inPrio) && prt.inBytes[inPrio] >= n.xoff(rt) {
			prt.pausedUpstream.set(inPrio)
			n.sendPFC(rt, port, inPrio, true)
		}
	}

	n.maybeMarkECN(pk, eg.egress[egPrio].bytes)
	if n.det != nil && inPrio != 0 {
		n.det.eng.Enqueue(nodeIdx, port, inPrio, out, egPrio)
	}
	eg.enqueue(egPrio, h, pk.size)
	if n.det != nil && inPrio != 0 {
		// After the enqueue, so a detection's mitigation sweep sees this
		// packet too — and may release it: pk is not used past here.
		n.detArrival(nodeIdx, port, inPrio, pk.dtag)
	}
	n.tryTx(nodeIdx, out)
}

// dropArrival traces the drop of an arriving packet, whose counter the
// caller has bumped, and releases its slot.
func (n *Network) dropArrival(id topology.NodeID, h int32, reason string) {
	if n.tracer != nil {
		n.trace(TraceEvent{Kind: "drop", Node: n.nodeName(id), Flow: n.pkts.slots[h].flow.spec.Name, Reason: reason})
	}
	n.pkts.release(h)
}

// deliver sinks a packet at a host. Misdelivery (possible only under
// scenario route overrides) counts as a routing drop.
func (n *Network) deliver(at topology.NodeID, pk *packet) {
	f := pk.flow
	if at != f.spec.Dst {
		n.drops.NoRoute++
		return
	}
	f.received += int64(pk.size)
	f.record(n.now, int64(pk.size))
	f.lat.observe(n.now - pk.born)
	if pk.ecn {
		n.handleECNDelivery(f)
	}
}

// prioOf maps a tag to a queue priority: lossless tags map to themselves
// (bounded by MaxPriority); everything else is the lossy queue 0.
func (n *Network) prioOf(tag int) int {
	if tag >= 1 && tag <= n.cfg.MaxPriority {
		if n.rules != nil && !n.rules.IsLossless(tag) {
			return 0
		}
		return tag
	}
	return 0
}

// --- Transmission -----------------------------------------------------------

// tryTx starts a transmission on (node, port) if the port is idle and an
// eligible queue has data.
func (n *Network) tryTx(nodeIdx, port int) {
	prt := &n.nodes[nodeIdx].ports[port]
	if prt.txBusy {
		return
	}
	q, next := arbitrate(prt.nonEmpty, prt.paused, prt.rrNext, n.nQueues, n.cfg.StrictPriority)
	if q < 0 {
		return
	}
	prt.rrNext = next
	h, pk := n.dequeue(prt, q)
	if n.det != nil && pk.inPrio > 0 {
		n.detTxDequeue(nodeIdx, port, q, pk)
	}
	n.startTx(nodeIdx, prt, port, h, pk.size)
}

// startTx puts the frame behind h on the wire of (node, port): the port
// serializes it until txDone, and it arrives at the peer a propagation
// delay later. Both events are assembled in their lanes. txDone is
// scheduled first, so even with PropDelay 0 it reads the slot's ingress
// charge before the peer's arrive rewrites it.
func (n *Network) startTx(nodeIdx int, prt *portRT, port int, h, size int32) {
	prt.txBusy = true
	prt.txPkt = h
	done := n.now + n.cfg.txTimeNs(int(size))
	e := n.reserve(evTxDone, done)
	e.node, e.port = int32(nodeIdx), int16(port)
	e = n.reserve(evArrive, done+int64(n.cfg.PropDelay))
	e.node, e.port, e.arg = int32(prt.peer), prt.peerPort, h
}

func (n *Network) txDone(nodeIdx, port int) {
	rt := &n.nodes[nodeIdx]
	prt := &rt.ports[port]
	prt.txBusy = false
	if !rt.isHost {
		n.releaseIngress(rt, &n.pkts.slots[prt.txPkt])
	}
	n.tryTx(nodeIdx, port)
	if rt.isHost {
		n.tryHostTx(nodeIdx, port)
	}
}

// xoff returns the switch's effective pause threshold: the static Xoff,
// lowered by the dynamic-threshold rule when the shared buffer fills.
func (n *Network) xoff(rt *nodeRT) int64 {
	th := n.cfg.PFC.XoffThreshold
	if n.cfg.DynamicThreshold {
		free := n.cfg.SwitchBuffer - rt.bufferUsed
		if free < 0 {
			free = 0
		}
		if dt := int64(n.cfg.DTAlpha * float64(free)); dt < th {
			th = dt
		}
		if min := int64(2 * n.cfg.MTU); th < min {
			th = min
		}
	}
	return th
}

// xon returns the resume threshold under the current buffer state.
func (n *Network) xon(rt *nodeRT) int64 {
	if !n.cfg.DynamicThreshold {
		return n.cfg.PFC.XonThreshold
	}
	x := n.xoff(rt) - n.cfg.XonGap
	if x < 0 {
		x = 0
	}
	return x
}

// releaseIngress uncharges a transmitted packet from its ingress counter
// and sends RESUME when occupancy falls to Xon.
func (n *Network) releaseIngress(rt *nodeRT, pk *packet) {
	rt.bufferUsed -= int64(pk.size)
	if pk.inPrio == 0 || pk.inPort < 0 {
		return
	}
	prt := &rt.ports[pk.inPort]
	prio := int(pk.inPrio)
	prt.inBytes[prio] -= int64(pk.size)
	if prt.pausedUpstream.has(prio) && prt.inBytes[prio] <= n.xon(rt) {
		prt.pausedUpstream.clear(prio)
		n.sendPFC(rt, int(pk.inPort), prio, false)
	}
}

// --- PFC --------------------------------------------------------------------

// sendPFC emits a PAUSE (on=true) or RESUME frame out of (rt, port); it
// takes effect at the peer after the propagation delay. Control frames
// are not serialized behind data (switches emit them with highest
// precedence from a dedicated reserve).
func (n *Network) sendPFC(rt *nodeRT, port, prio int, on bool) {
	if n.debugPFC != nil {
		n.debugPFC(rt.id, port, prio, on)
	}
	if on {
		n.PauseFrames++
	} else {
		n.ResumeFrames++
	}
	if n.tel != nil {
		n.telemetryPFC(rt, port, prio, on)
	}
	if n.tracer != nil {
		kind := "resume"
		if on {
			kind = "pause"
		}
		n.trace(TraceEvent{Kind: kind, Node: n.nodeName(rt.id),
			Peer: n.nodeName(rt.ports[port].peer), Prio: prio,
			Depth: rt.ports[port].inBytes[prio]})
	}
	// Deadlock onset detection, piggybacked on pause emission to stay off
	// the fast path when neither tracing nor telemetry is attached.
	if on && (n.tracer != nil || n.tel != nil) {
		if cyc := n.detectCycleQueues(); cyc != nil {
			if !n.inDeadlock {
				n.inDeadlock = true
				n.trace(TraceEvent{Kind: "deadlock", Node: n.nodeName(rt.id), Cycle: n.cycleStrings(cyc)})
				if n.tel != nil {
					n.tel.Counter("sim_deadlock_onsets_total").Inc()
					g := n.tel.Gauge("sim_time_to_deadlock_seconds")
					if g.Value() == 0 {
						g.Set(time.Duration(n.now).Seconds())
					}
				}
			}
		} else {
			n.inDeadlock = false
		}
	}
	prt := &rt.ports[port]
	arg := n.detPauseTag(rt, port, prio, on)
	e := n.reserve(evPFC, n.now+int64(n.cfg.PropDelay))
	e.node, e.port = int32(prt.peer), prt.peerPort
	e.prio, e.on, e.arg = int8(prio), on, arg
}

// telemetryPFC records the PFC-transition metrics: pause/resume frame
// counters, the lossless ingress occupancy at the transition, and — on
// resume — how long the upstream link spent paused. The link label names
// the pause direction: "pauser->paused-peer".
func (n *Network) telemetryPFC(rt *nodeRT, port, prio int, on bool) {
	prt := &rt.ports[port]
	link := n.nodeName(rt.id) + "->" + n.nodeName(prt.peer)
	if on {
		n.tel.Counter("sim_pause_frames_total").Inc()
		prt.pauseStart[prio] = n.now
	} else {
		n.tel.Counter("sim_resume_frames_total").Inc()
		n.tel.Histogram("sim_pause_duration_seconds", telemetry.DurationBuckets(), "link", link).
			ObserveDuration(n.now - prt.pauseStart[prio])
	}
	n.tel.Histogram("sim_queue_depth_bytes", telemetry.ByteBuckets(), "node", n.nodeName(rt.id)).
		Observe(float64(prt.inBytes[prio]))
}

func (n *Network) pfcEffect(nodeIdx, port, prio int, on bool, arg int32) {
	rt := &n.nodes[nodeIdx]
	prt := &rt.ports[port]
	if on {
		prt.paused.set(prio)
	} else {
		prt.paused.clear(prio)
	}
	if n.det != nil || n.dlTrack != nil {
		n.detPFCEffect(nodeIdx, rt, port, prio, on, arg)
	}
	if !on {
		n.tryTx(nodeIdx, port)
		if rt.isHost {
			n.tryHostTx(nodeIdx, port)
		}
	}
}

// ecmpPick deterministically selects an ECMP member.
func ecmpPick(flowHash, salt uint64, m int) int {
	x := flowHash ^ (salt * 0x9e3779b97f4a7c15)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return int(x % uint64(m))
}

// RebootSwitch models a power-cycle of one switch: every queued packet
// is lost (counted under DropStats.SwitchReboot, not against the
// lossless-drop invariant), ingress accounting and the shared buffer
// reset, and every PAUSE this switch had asserted upstream is cleared
// with a RESUME — a rebooted switch no longer remembers asserting it,
// and without the RESUME the upstream port would stall forever. Pause
// state imposed BY downstream peers is kept: that claim lives at the
// peer, which will RESUME on its own once it drains. A frame already
// being serialized stays on the wire; its ingress accounting is
// neutralized so its eventual release is a no-op. Returns the number of
// packets lost. The reboot itself is instantaneous: rule state is
// handled above the simulator (the controller re-pushes the static
// bundle, see internal/controller.Redeploy).
func (n *Network) RebootSwitch(id topology.NodeID) int64 {
	rt := n.rt(id)
	if rt.isHost {
		panic("sim: RebootSwitch on a host")
	}
	var lost int64
	for pi := range rt.ports {
		prt := &rt.ports[pi]
		for q := 0; q < n.nQueues; q++ {
			for prt.nonEmpty.has(q) {
				h, pk := n.dequeue(prt, q)
				lost++
				n.drops.SwitchReboot++
				n.trace(TraceEvent{Kind: "drop", Node: n.nodeName(id),
					Flow: pk.flow.spec.Name, Reason: "reboot"})
				n.pkts.release(h)
			}
		}
		for prio := 0; prio < n.nQueues; prio++ {
			prt.inBytes[prio] = 0
			if prt.pausedUpstream.has(prio) {
				prt.pausedUpstream.clear(prio)
				n.sendPFC(rt, pi, prio, false)
			}
		}
	}
	if n.det != nil {
		// Queues emptied without per-packet dequeue hooks; the pauses this
		// switch asserted were released through sendPFC above. Zero the
		// hold matrix and retire the tag epochs in one sweep.
		n.det.eng.ResetNode(int(id))
	}
	rt.bufferUsed = 0
	for pi := range rt.ports {
		prt := &rt.ports[pi]
		if prt.txBusy {
			// releaseIngress decrements bufferUsed unconditionally and then
			// skips ports < 0: pre-charge the in-flight frame so its release
			// nets to zero against the fresh counters. The slot is the one
			// the peer's arrive will see, which overwrites inPort — after
			// this port's txDone has read it.
			pk := &n.pkts.slots[prt.txPkt]
			pk.inPort = -1
			rt.bufferUsed += int64(pk.size)
		}
	}
	return lost
}

// MaxIngressObserved returns the fabric-wide high-water mark of lossless
// ingress occupancy — tests assert it stays within Xoff+headroom.
func (n *Network) MaxIngressObserved() int64 {
	var m int64
	for i := range n.nodes {
		for p := range n.nodes[i].ports {
			if v := n.nodes[i].ports[p].maxInBytes; v > m {
				m = v
			}
		}
	}
	return m
}
