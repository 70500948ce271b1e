// Package sim is a discrete-event, packet-level simulator of a PFC
// (IEEE 802.1Qbb) lossless Ethernet fabric with Tagger's match-action
// pipeline on every switch.
//
// It models what the paper's testbed and NS-3 simulations measure: shared
// ingress-counting switch buffers with per-(port, priority) PFC
// PAUSE/RESUME, per-priority egress queues selected by the REWRITTEN tag
// (§7's priority transition), TTL, lossy-queue overflow drops, host NICs
// that honor PAUSE, and a deadlock detector over the live pause-wait
// graph. Time is integer nanoseconds and execution is fully deterministic
// for a given scenario.
//
// The event engine is built for throughput: a scheduler of monotone FIFO
// lanes for the constant-delay event kinds over a typed binary heap for
// the rest, a 32-byte packed event struct assembled in its ring slot, a
// packet slab whose 4-byte handles are what queues, transmitters and
// arrival events carry, a bit-scan egress arbiter, dense per-switch
// forwarding and classify memos in front of the routing and rule maps,
// and dedicated event kinds for periodic timers and DCQCN notifications,
// so the steady state schedules and dispatches without heap allocations
// or hashing (see DESIGN.md §11).
package sim

// eventKind discriminates the simulator's event types.
type eventKind uint8

const (
	evArrive   eventKind = iota // packet arrives at node ingress (arg = packet handle)
	evTxDone                    // node port finishes serializing a packet
	evPFC                       // PFC pause/resume frame takes effect
	evFlowKick                  // re-evaluate a host's flow scheduler
	evCall                      // scenario callback (arg = call slot)
	evTimer                     // periodic timer tick (arg = timer slot)
	evCNP                       // DCQCN rate cut lands at the sender (arg = flow index)

	numEventKinds = iota
)

// event is one scheduled occurrence: 32 bytes, plain data, no pointers.
// Fields beyond (at, seq, kind) are a union across kinds; payloads that
// do not fit (packets, callbacks, timers) live in side tables indexed by
// arg, which keeps the heap slice compact and allocation-free.
type event struct {
	at  int64 // nanoseconds
	seq int64 // FIFO tie-break for determinism

	node int32 // target node index
	arg  int32 // kind-specific payload index (see eventKind)

	port int16 // target port number
	prio int8  // PFC priority (evPFC)
	kind eventKind
	on   bool
}

// eventHeap is a hand-inlined binary min-heap ordered by (at, seq). It is
// the scheduler's fallback: the home of every event kind without a lane
// and of any lane-kind event that would break its lane's order.
type eventHeap []event

// before is the (at, seq) order. It is total (seq is unique), so the
// engine's pop order is a strict sort and independent of how the
// scheduler stores events — the engine-equivalence golden pins this
// against the original container/heap semantics.
func (e *event) before(at, seq int64) bool {
	return e.at < at || (e.at == at && e.seq < seq)
}

func (h eventHeap) less(i, j int) bool { return h[i].before(h[j].at, h[j].seq) }

// reserve appends an event carrying only its key (at, seq, kind), sifts
// it up, and returns where it came to rest so the caller can fill in the
// payload — which the heap order never reads. The pointer is good until
// the next push or pop.
func (h *eventHeap) reserve(at, seq int64, kind eventKind) *event {
	q := append(*h, event{at: at, seq: seq, kind: kind})
	*h = q
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	return &q[i]
}

// pop removes and returns the minimum. Callers check len first.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	*h = q
	// Sift down.
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && q.less(r, l) {
			m = r
		}
		if !q.less(m, i) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	return top
}

// numLanes is the number of event kinds with a lane: evArrive, evTxDone
// and evPFC, the first three kinds, so a lane's index is its kind.
const numLanes = 3

// laneMinCap is a lane's first ring size; rings then double up to the
// kind's in-flight high-water mark and stay there.
const laneMinCap = 16

// lane is a FIFO ring of one event kind, sorted by (at, seq) because the
// scheduler only admits an event whose at is not below the newest queued
// one (seq grows with every schedule call).
type lane struct {
	buf  []event // len is zero or a power of two
	head int     // index of the oldest event
	n    int     // events queued
	last int64   // at of the newest event; meaningful while n > 0
}

// reserve claims the ring's next slot for an event with the given key and
// returns it for the caller to fill in the payload: the event is
// assembled where it will wait, never built elsewhere and copied in. The
// slot is zeroed apart from the key, so a kind sets only the fields it
// uses. The pointer is good until the lane's next reserve.
func (l *lane) reserve(at, seq int64, kind eventKind) *event {
	if l.n == len(l.buf) {
		// Unwrap into a ring twice the size.
		nb := make([]event, max(2*len(l.buf), laneMinCap))
		k := copy(nb, l.buf[l.head:])
		copy(nb[k:], l.buf[:l.head])
		l.buf, l.head = nb, 0
	}
	e := &l.buf[(l.head+l.n)&(len(l.buf)-1)]
	*e = event{at: at, seq: seq, kind: kind}
	l.n++
	l.last = at
	return e
}

func (l *lane) pop() event {
	e := l.buf[l.head]
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	return e
}

// scheduler is the engine's pending-event set: one monotone lane per
// constant-delay kind plus the heap. evArrive, evTxDone and evPFC are
// always scheduled at now + a per-run constant (MTU serialization time,
// PropDelay, or their sum) and now never decreases, so each kind's
// events are born already sorted and a ring holds them at O(1) per push
// and pop; everything else, and any lane-kind event that does arrive out
// of order, goes through the heap. pop takes the (at, seq) minimum over
// the lane heads and the heap top — the same strict sort one heap gave.
type scheduler struct {
	lanes [numLanes]lane
	heap  eventHeap

	pending, maxPending int
	// Every reserve lands in exactly one of these: a lane, the heap
	// because its kind has no lane, or the heap because its lane would
	// have gone out of order.
	lanePushes, heapPushes, laneFallbacks int64
}

// reserve queues an event with the given key and returns it for the
// caller to fill in the payload fields its kind uses (the rest are zero).
// It is the only way in: a lane kind whose time keeps its lane sorted is
// assembled in the ring slot, everything else in the heap.
func (s *scheduler) reserve(kind eventKind, at, seq int64) *event {
	if s.pending++; s.pending > s.maxPending {
		s.maxPending = s.pending
	}
	if kind < numLanes {
		if l := &s.lanes[kind]; l.n == 0 || at >= l.last {
			s.lanePushes++
			return l.reserve(at, seq, kind)
		}
		s.laneFallbacks++
	} else {
		s.heapPushes++
	}
	return s.heap.reserve(at, seq, kind)
}

// push queues a fully built event: the form for the kinds off the packet
// path, where the copy does not matter.
func (s *scheduler) push(e *event) { *s.reserve(e.kind, e.at, e.seq) = *e }

// pop removes the earliest pending event into e if it is due by limit.
func (s *scheduler) pop(limit int64, e *event) bool {
	src := -1 // winning lane; numLanes is the heap
	var at, seq int64
	for i := range s.lanes {
		if l := &s.lanes[i]; l.n > 0 {
			if h := &l.buf[l.head]; src < 0 || h.before(at, seq) {
				src, at, seq = i, h.at, h.seq
			}
		}
	}
	if len(s.heap) > 0 {
		if h := &s.heap[0]; src < 0 || h.before(at, seq) {
			src, at = numLanes, h.at
		}
	}
	if src < 0 || at > limit {
		return false
	}
	s.pending--
	if src == numLanes {
		*e = s.heap.pop()
	} else {
		*e = s.lanes[src].pop()
	}
	return true
}

// EngineStats are the event engine's self-counters: what it dispatched,
// how the scheduler stored it, and how deep the pending set got.
type EngineStats struct {
	// Dispatched events by kind.
	Arrive, TxDone, PFC, FlowKick, Call, Timer, CNP int64
	// LanePushes, HeapPushes and LaneFallbacks split the schedule calls by
	// where the event was queued: an O(1) lane, the heap because its kind
	// has no lane, or the heap because a lane kind arrived out of order
	// for its lane. The packet path is built so the last stays zero.
	LanePushes, HeapPushes, LaneFallbacks int64
	// MaxPending is the high-water mark of scheduled, undispatched events.
	MaxPending int
	// MaxPacketsLive is the high-water mark of packets in the fabric at
	// once (queued, serializing or on a wire): the packet slab's size.
	MaxPacketsLive int
}

// Events returns the total number of events dispatched.
func (s EngineStats) Events() int64 {
	return s.Arrive + s.TxDone + s.PFC + s.FlowKick + s.Call + s.Timer + s.CNP
}

// EngineStats returns the engine's self-counters since construction.
func (n *Network) EngineStats() EngineStats {
	d := &n.dispatched
	return EngineStats{
		Arrive: d[evArrive], TxDone: d[evTxDone], PFC: d[evPFC], FlowKick: d[evFlowKick],
		Call: d[evCall], Timer: d[evTimer], CNP: d[evCNP],
		LanePushes: n.events.lanePushes, HeapPushes: n.events.heapPushes,
		LaneFallbacks: n.events.laneFallbacks,
		MaxPending:    n.events.maxPending, MaxPacketsLive: len(n.pkts.slots),
	}
}

// reserve schedules an event of the given kind and returns it for the
// caller to fill in its payload — the packet path's form of schedule.
func (n *Network) reserve(kind eventKind, at int64) *event {
	seq := n.seq
	n.seq++
	return n.events.reserve(kind, at, seq)
}

func (n *Network) schedule(e event) {
	e.seq = n.seq
	n.seq++
	n.events.push(&e)
}

// scheduleCall registers a one-shot callback in the call table and
// schedules its firing. Call slots are recycled through a free list, so
// only the closure itself allocates — scenario callbacks (Network.At)
// are rare and off the packet path.
func (n *Network) scheduleCall(at int64, fn func()) {
	var slot int32
	if k := len(n.callFree); k > 0 {
		slot = n.callFree[k-1]
		n.callFree = n.callFree[:k-1]
		n.calls[slot] = fn
	} else {
		slot = int32(len(n.calls))
		n.calls = append(n.calls, fn)
	}
	n.schedule(event{at: at, kind: evCall, arg: slot})
}

// runCall fires and recycles a one-shot callback slot.
func (n *Network) runCall(slot int32) {
	fn := n.calls[slot]
	n.calls[slot] = nil
	n.callFree = append(n.callFree, slot)
	fn()
}

// --- Packet slab ------------------------------------------------------------

// packetSlab owns every packet in the fabric. A packet is written once,
// into a slot, when its host injects it (tryHostTx) and the slot is
// released once, at delivery or at a counted drop; in between, egress
// FIFOs, a port's in-serialization frame and evArrive events carry only
// the slot's 4-byte handle. Slots are recycled through a free list: after
// warm-up the slab reaches the fabric's packets-in-flight high-water mark
// and steady-state forwarding allocates nothing per packet.
//
// Rule: no *packet is held across a call that can inject (tryHostTx and
// whatever reaches it), because alloc may grow the slab and move every
// slot. Handles stay valid; take the pointer again after such a call.
type packetSlab struct {
	slots []packet
	free  []int32
}

// alloc returns the handle of a free slot. Its contents are stale: the
// caller writes the whole packet. The slab grows only when every slot is
// live, so len(slots) is the high-water mark of live packets.
func (s *packetSlab) alloc() int32 {
	if k := len(s.free); k > 0 {
		h := s.free[k-1]
		s.free = s.free[:k-1]
		return h
	}
	s.slots = append(s.slots, packet{})
	return int32(len(s.slots) - 1)
}

// release recycles a slot whose packet has left the fabric.
func (s *packetSlab) release(h int32) { s.free = append(s.free, h) }

// live returns the number of slots holding a packet still in the fabric.
func (s *packetSlab) live() int { return len(s.slots) - len(s.free) }

// --- Periodic timers --------------------------------------------------------

// timerKind discriminates the recurring maintenance ticks.
type timerKind uint8

const (
	timerDCQCNRecovery timerKind = iota // per-flow additive rate increase
	timerRecoveryScan                   // detect-and-break monitor
	timerWatchdog                       // continuous deadlock watchdog
	timerDetectRefresh                  // in-switch detector's pause-refresh tick
)

// timerRT is one registered periodic timer. The evTimer event carries
// only the slot index; rescheduling pushes a fresh 32-byte event — no
// closure, no allocation.
type timerRT struct {
	kind   timerKind
	period int64
	flow   int32          // timerDCQCNRecovery: index into Network.flows
	rstats *RecoveryStats // timerRecoveryScan
	wstats *WatchdogStats // timerWatchdog
}

// addTimer registers a periodic timer and schedules its first tick.
func (n *Network) addTimer(t timerRT, first int64) {
	slot := int32(len(n.timers))
	n.timers = append(n.timers, t)
	n.schedule(event{at: first, kind: evTimer, arg: slot})
}

// runTimer dispatches one periodic tick. Bodies replicate the exact
// schedule-call order of the closure-based timers they replaced, so seq
// assignment — and therefore the event-order golden — is unchanged.
func (n *Network) runTimer(slot int32) {
	t := &n.timers[slot]
	switch t.kind {
	case timerDCQCNRecovery:
		n.dcqcnRecoveryTick(t, slot)
	case timerRecoveryScan:
		if cyc := n.detectCycleQueues(); len(cyc) > 0 {
			t.rstats.Detections++
			n.flushQueue(cyc[0], t.rstats)
		}
		n.schedule(event{at: n.now + t.period, kind: evTimer, arg: slot})
	case timerWatchdog:
		n.watchdogTick(t, slot)
	case timerDetectRefresh:
		n.detectorRefreshTick(t, slot)
	}
}
