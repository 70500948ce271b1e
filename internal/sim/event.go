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
// the rest, a 32-byte packed event struct, a pooled packet arena for
// frames on the wire, dense per-switch forwarding and classify memos in
// front of the routing and rule maps, and dedicated event kinds for
// periodic timers and DCQCN notifications, so the steady state schedules
// and dispatches without heap allocations or hashing (see DESIGN.md §11).
package sim

// eventKind discriminates the simulator's event types.
type eventKind uint8

const (
	evArrive   eventKind = iota // packet arrives at node ingress (arg = arena slot)
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

// push appends and sifts up.
func (h *eventHeap) push(e event) {
	q := append(*h, e)
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

// lane is a FIFO ring of one event kind, sorted by (at, seq) because
// push only admits an event whose at is not below the newest queued one
// (seq grows with every schedule call).
type lane struct {
	buf  []event // len is zero or a power of two
	head int     // index of the oldest event
	n    int     // events queued
	last int64   // at of the newest event; meaningful while n > 0
}

func (l *lane) push(e *event) {
	if l.n == len(l.buf) {
		// Unwrap into a ring twice the size.
		nb := make([]event, max(2*len(l.buf), laneMinCap))
		k := copy(nb, l.buf[l.head:])
		copy(nb[k:], l.buf[:l.head])
		l.buf, l.head = nb, 0
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = *e
	l.n++
	l.last = e.at
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

	pending, maxPending    int
	lanePushes, heapPushes int64
}

func (s *scheduler) push(e *event) {
	if s.pending++; s.pending > s.maxPending {
		s.maxPending = s.pending
	}
	if e.kind < numLanes {
		if l := &s.lanes[e.kind]; l.n == 0 || e.at >= l.last {
			s.lanePushes++
			l.push(e)
			return
		}
	}
	s.heapPushes++
	s.heap.push(*e)
}

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
	// LanePushes and HeapPushes split the schedule calls by where the
	// event was queued: an O(1) lane or the fallback heap.
	LanePushes, HeapPushes int64
	// MaxPending is the high-water mark of scheduled, undispatched events.
	MaxPending int
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
		MaxPending: n.events.maxPending,
	}
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

// --- Packet arena -----------------------------------------------------------

// packetArena holds the frames currently on the wire (between startTx and
// arrival). Slots are recycled through a free list: after warm-up the
// arena reaches the fabric's in-flight high-water mark and steady-state
// transmission allocates nothing per packet.
type packetArena struct {
	slots []packet
	free  []int32
}

// put stores a packet and returns its slot.
func (a *packetArena) put(pk packet) int32 {
	if k := len(a.free); k > 0 {
		slot := a.free[k-1]
		a.free = a.free[:k-1]
		a.slots[slot] = pk
		return slot
	}
	a.slots = append(a.slots, pk)
	return int32(len(a.slots) - 1)
}

// take removes and returns the packet in slot, recycling it.
func (a *packetArena) take(slot int32) packet {
	pk := a.slots[slot]
	a.free = append(a.free, slot)
	return pk
}

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
