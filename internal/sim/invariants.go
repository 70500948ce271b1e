package sim

import "fmt"

// CheckInvariants audits the bookkeeping the packet path keeps
// incrementally against the state it summarizes, and returns the first
// disagreement (nil when all hold). It may be called whenever Run is not
// executing; it walks every queue and pending event, so it belongs at the
// end of a run or on a slow tick, not on the packet path.
//
//   - Slab accounting: every live slot is referenced exactly once — by one
//     egress FIFO entry or by one pending evArrive (a frame on a wire,
//     which a busy transmitter's txPkt may also name while it is still
//     serializing) — and every other slot is on the free list once.
//   - Masks: a port's nonEmpty bit is set exactly for the FIFOs that hold
//     packets, and its paused bit equals the peer's pausedUpstream bit
//     once the PFC frames still in flight to it have landed.
//   - Shared buffer: a switch's bufferUsed is the bytes in its FIFOs plus
//     the frames its ports are serializing.
func (n *Network) CheckInvariants() error {
	if err := n.checkSlab(); err != nil {
		return err
	}
	if err := n.checkMasks(); err != nil {
		return err
	}
	return n.checkBuffers()
}

// pendingEvents calls fn for every scheduled, undispatched event.
func (s *scheduler) pendingEvents(fn func(*event)) {
	for li := range s.lanes {
		l := &s.lanes[li]
		for i := 0; i < l.n; i++ {
			fn(&l.buf[(l.head+i)&(len(l.buf)-1)])
		}
	}
	for i := range s.heap {
		fn(&s.heap[i])
	}
}

func (n *Network) checkSlab() error {
	const (
		unseen = iota
		queued
		onWire
		serializing
		free
	)
	state := make([]uint8, len(n.pkts.slots))
	claim := func(h int32, from, to uint8, who string) error {
		if h < 0 || int(h) >= len(state) {
			return fmt.Errorf("sim: invariant: %s holds handle %d outside the slab of %d", who, h, len(state))
		}
		if state[h] != from {
			return fmt.Errorf("sim: invariant: %s holds handle %d, already in state %d (want %d)", who, h, state[h], from)
		}
		state[h] = to
		return nil
	}
	live := 0
	for ni := range n.nodes {
		for pi := range n.nodes[ni].ports {
			prt := &n.nodes[ni].ports[pi]
			for q := range prt.egress {
				for _, h := range prt.egress[q].queued() {
					if err := claim(h, unseen, queued, fmt.Sprintf("node %d port %d queue %d", ni, pi, q)); err != nil {
						return err
					}
					live++
				}
			}
		}
	}
	var err error
	n.events.pendingEvents(func(e *event) {
		if e.kind != evArrive || err != nil {
			return
		}
		err = claim(e.arg, unseen, onWire, fmt.Sprintf("arrival at node %d port %d", e.node, e.port))
		live++
	})
	if err != nil {
		return err
	}
	for ni := range n.nodes {
		for pi := range n.nodes[ni].ports {
			if prt := &n.nodes[ni].ports[pi]; prt.txBusy {
				// Its arrival was scheduled with its txDone and lands no earlier.
				if err := claim(prt.txPkt, onWire, serializing, fmt.Sprintf("transmitter of node %d port %d", ni, pi)); err != nil {
					return err
				}
			}
		}
	}
	for _, h := range n.pkts.free {
		if err := claim(h, unseen, free, "free list"); err != nil {
			return err
		}
	}
	if live != n.pkts.live() {
		return fmt.Errorf("sim: invariant: queues and wires hold %d packets, the slab has %d of %d slots off its free list: %d leaked",
			live, n.pkts.live(), len(state), n.pkts.live()-live)
	}
	return nil
}

func (n *Network) checkMasks() error {
	// The PFC frame that will land last on each (node, port, priority).
	type pfcKey struct {
		node int32
		port int16
		prio int8
	}
	last := map[pfcKey]*event{}
	n.events.pendingEvents(func(e *event) {
		if e.kind != evPFC {
			return
		}
		k := pfcKey{e.node, e.port, e.prio}
		if l := last[k]; l == nil || l.before(e.at, e.seq) {
			last[k] = e
		}
	})
	for ni := range n.nodes {
		for pi := range n.nodes[ni].ports {
			prt := &n.nodes[ni].ports[pi]
			for q := range prt.egress {
				if has := !prt.egress[q].empty(); prt.nonEmpty.has(q) != has {
					return fmt.Errorf("sim: invariant: node %d port %d queue %d: nonEmpty bit %v, FIFO holds %d",
						ni, pi, q, prt.nonEmpty.has(q), prt.egress[q].len())
				}
				if q >= n.nQueues && (prt.paused.has(q) || prt.pausedUpstream.has(q)) {
					return fmt.Errorf("sim: invariant: node %d port %d: pause bit set for queue %d of %d", ni, pi, q, n.nQueues)
				}
				settled := prt.paused.has(q)
				if e := last[pfcKey{int32(ni), int16(pi), int8(q)}]; e != nil {
					settled = e.on
				}
				if peer := &n.nodes[prt.peer].ports[prt.peerPort]; settled != peer.pausedUpstream.has(q) {
					return fmt.Errorf("sim: invariant: node %d port %d priority %d: paused settles to %v, peer asserts %v",
						ni, pi, q, settled, peer.pausedUpstream.has(q))
				}
			}
		}
	}
	return nil
}

func (n *Network) checkBuffers() error {
	for ni := range n.nodes {
		rt := &n.nodes[ni]
		if rt.isHost {
			continue
		}
		var resident int64
		for pi := range rt.ports {
			prt := &rt.ports[pi]
			for q := range prt.egress {
				var bytes int64
				for _, h := range prt.egress[q].queued() {
					bytes += int64(n.pkts.slots[h].size)
				}
				if bytes != prt.egress[q].bytes {
					return fmt.Errorf("sim: invariant: switch %s port %d queue %d: bytes = %d, packets sum to %d",
						n.nodeName(rt.id), pi, q, prt.egress[q].bytes, bytes)
				}
				resident += bytes
			}
			if prt.txBusy {
				resident += int64(n.pkts.slots[prt.txPkt].size)
			}
		}
		if rt.bufferUsed != resident {
			return fmt.Errorf("sim: invariant: switch %s: bufferUsed = %d, queued + serializing = %d",
				n.nodeName(rt.id), rt.bufferUsed, resident)
		}
	}
	return nil
}
