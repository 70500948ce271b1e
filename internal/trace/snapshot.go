package trace

// Snapshot records: the frozen-state section of a flight-recorder
// incident capture. The recorder appends these after the event window;
// together they make the .tgl file self-contained — the post-mortem
// pipeline reconstructs the wait-for cycle, the queue occupancy, the
// live detector tags and the matched TCAM rules from the snapshot
// alone, with the event window supplying the onset timeline.
//
// Field layout by kind (all single 32-byte slots):
//
//	KindSnapStart:  A=trigger-site node (string ID), C=trigger name
//	                (string ID), Tick=freeze time
//	KindWaitQueue:  Aux=queue index, A=node, B=downstream peer
//	                (string IDs), Prio, Depth=queued bytes, C=packets
//	KindWaitEdge:   Aux=from queue index, B=to queue index
//	KindQueueState: A=node, B=peer (string IDs), Prio, Aux=QFlag bits,
//	                C=ingress bytes, Depth=egress bytes
//	KindRuleDef:    Aux=dense rule ID, A=rule description (string ID)
//	KindRuleMatch:  A=node, B=flow, C=egress peer (string IDs), Prio,
//	                Aux=dense rule ID (RuleIDNone: default action),
//	                Depth=bytes queued
//	KindDetTag:     A=node, B=upstream peer (string IDs), C=ingress
//	                port, Prio, Aux=DetFlag bits, Depth=the 64-bit
//	                detection tag (valid bit 63, epoch 32..55, node
//	                16..31, port 4..15, prio 0..3)
//	KindSnapEnd:    Depth=ring overwrites at freeze, C=snapshot record
//	                count (KindSnapStart through KindSnapEnd inclusive)

// QFlag bits of a KindQueueState record.
const (
	// QFlagPausedByPeer: the downstream peer has PAUSEd this egress
	// queue.
	QFlagPausedByPeer uint16 = 1 << 0
	// QFlagPausingUpstream: this ingress has PAUSEd its upstream.
	QFlagPausingUpstream uint16 = 1 << 1
	// QFlagTxBusy: the port's transmitter is mid-frame.
	QFlagTxBusy uint16 = 1 << 2
)

// DetFlag bits of a KindDetTag record.
const (
	// DetFlagOrigin: the ingress minted the tag itself (chain head).
	DetFlagOrigin uint16 = 1 << 0
	// DetFlagCarry: the ingress also holds an adopted foreign tag.
	DetFlagCarry uint16 = 1 << 1
)

// RuleIDNone in a KindRuleMatch means no exact TCAM entry matched: the
// packet rode a §7 default action (injection/delivery).
const RuleIDNone = 0xffff

// SnapWaitQueue is one paused, non-empty lossless egress queue — a
// vertex of the wait-for graph.
type SnapWaitQueue struct {
	Node string // switch owning the queue
	Peer string // downstream neighbor pausing it
	Prio int
	// Bytes/Pkts is the queue occupancy at freeze.
	Bytes int64
	Pkts  int
}

// SnapQueueState is the per-(port, priority) occupancy and pause state
// of one queue pair that was non-idle at freeze.
type SnapQueueState struct {
	Node  string
	Peer  string
	Prio  int
	Flags uint16 // QFlag bits
	// IngressBytes is the lossless ingress accounting charged against
	// (node<-peer, prio); EgressBytes the egress queue toward peer.
	IngressBytes int64
	EgressBytes  int64
}

// SnapRuleDef binds a dense rule ID to its human-readable match-action
// description, making the incident file self-contained.
type SnapRuleDef struct {
	ID   int
	Desc string
}

// SnapRuleMatch attributes bytes queued at freeze to the TCAM rule that
// steered them: flow's packets sitting in node's egress queue toward
// Peer on Prio, classified by RuleID (RuleIDNone: default action).
type SnapRuleMatch struct {
	Node   string
	Flow   string
	Peer   string
	Prio   int
	RuleID int
	Bytes  int64
}

// SnapDetTag is one live in-switch detector ingress state: the tag the
// asserted pause on (node<-peer, port, prio) carries.
type SnapDetTag struct {
	Node   string
	Peer   string
	Port   int
	Prio   int
	Tag    uint64 // detection tag bits (layout above)
	Origin bool   // minted here (chain head) vs inherited
	Carry  bool   // an adopted foreign tag is also held
}

// Snapshot is the decoded frozen-state section of an incident capture.
type Snapshot struct {
	// Tick is the freeze time in nanoseconds.
	Tick int64
	// Node is the switch whose event tripped the trigger.
	Node string
	// Trigger names the capture cause ("deadlock-onset",
	// "detector-fire", "fp-oracle-discrepancy", "invariant-violation").
	Trigger string

	// WaitQueues and WaitEdges are the wait-for graph: edge [from, to]
	// means queue `from` cannot drain until queue `to` does.
	WaitQueues []SnapWaitQueue
	WaitEdges  [][2]int

	Queues      []SnapQueueState
	RuleDefs    []SnapRuleDef
	RuleMatches []SnapRuleMatch
	DetTags     []SnapDetTag

	// Overwrites is how many ring entries had been overwritten when the
	// recorder froze — event-window history lost before the incident.
	Overwrites int64
	// Records is the producer-declared snapshot record count; Complete
	// reports the closing KindSnapEnd arrived.
	Records  int
	Complete bool
}

// Snapshot returns the decoded snapshot once its records have been
// consumed by Next (nil before then, and for ordinary traces). Callers
// drain the reader first: the snapshot trails the event window.
func (r *Reader) Snapshot() *Snapshot { return r.snap }

// foldSnap folds one snapshot record into the reader's Snapshot state.
// Records before any KindSnapStart (lost or torn capture) are orphans:
// skipped and counted, like orphaned cycle edges.
func (r *Reader) foldSnap(e Entry) {
	if e.Kind == KindSnapStart {
		r.snap = &Snapshot{
			Tick:    r.nanos(e.Tick),
			Node:    r.str(e.A),
			Trigger: r.str(e.C),
		}
		return
	}
	s := r.snap
	if s == nil || s.Complete {
		r.skipped++
		return
	}
	switch e.Kind {
	case KindWaitQueue:
		if int(e.Aux) != len(s.WaitQueues) {
			r.skipped++ // damaged: indexes must arrive densely in order
			return
		}
		s.WaitQueues = append(s.WaitQueues, SnapWaitQueue{
			Node: r.str(e.A), Peer: r.str(e.B), Prio: int(e.Prio),
			Bytes: e.Depth, Pkts: int(e.C),
		})
	case KindWaitEdge:
		s.WaitEdges = append(s.WaitEdges, [2]int{int(e.Aux), int(e.B)})
	case KindQueueState:
		s.Queues = append(s.Queues, SnapQueueState{
			Node: r.str(e.A), Peer: r.str(e.B), Prio: int(e.Prio),
			Flags: e.Aux, IngressBytes: int64(e.C), EgressBytes: e.Depth,
		})
	case KindRuleDef:
		s.RuleDefs = append(s.RuleDefs, SnapRuleDef{ID: int(e.Aux), Desc: r.str(e.A)})
	case KindRuleMatch:
		s.RuleMatches = append(s.RuleMatches, SnapRuleMatch{
			Node: r.str(e.A), Flow: r.str(e.B), Peer: r.str(e.C),
			Prio: int(e.Prio), RuleID: int(e.Aux), Bytes: e.Depth,
		})
	case KindDetTag:
		s.DetTags = append(s.DetTags, SnapDetTag{
			Node: r.str(e.A), Peer: r.str(e.B),
			Port: int(e.C), Prio: int(e.Prio), Tag: uint64(e.Depth),
			Origin: e.Aux&DetFlagOrigin != 0, Carry: e.Aux&DetFlagCarry != 0,
		})
	case KindSnapEnd:
		s.Overwrites = e.Depth
		s.Records = int(e.C)
		s.Complete = true
	}
}

// Entry constructors: the snapshot wire layout in one place, shared by
// the simulator's flight recorder and the format tests.

// SnapStartEntry opens a snapshot section.
func SnapStartEntry(tick int64, node, trigger uint32) Entry {
	return Entry{Tick: tick, Kind: KindSnapStart, A: node, C: trigger}
}

// WaitQueueEntry records wait-for graph vertex idx.
func WaitQueueEntry(idx int, node, peer uint32, prio int, bytes int64, pkts int) Entry {
	return Entry{
		Kind: KindWaitQueue, Aux: uint16(idx), A: node, B: peer,
		Prio: uint8(prio), Depth: bytes, C: uint32(pkts),
	}
}

// WaitEdgeEntry records wait-for graph edge from -> to.
func WaitEdgeEntry(from, to int) Entry {
	return Entry{Kind: KindWaitEdge, Aux: uint16(from), B: uint32(to)}
}

// QueueStateEntry records one non-idle queue pair's state.
func QueueStateEntry(node, peer uint32, prio int, flags uint16, inBytes, egBytes int64) Entry {
	return Entry{
		Kind: KindQueueState, A: node, B: peer, Prio: uint8(prio),
		Aux: flags, C: uint32(inBytes), Depth: egBytes,
	}
}

// RuleDefEntry binds dense rule id to its description string.
func RuleDefEntry(id int, desc uint32) Entry {
	return Entry{Kind: KindRuleDef, Aux: uint16(id), A: desc}
}

// RuleMatchEntry attributes queued bytes to a TCAM rule.
func RuleMatchEntry(node, flow, peer uint32, prio, ruleID int, bytes int64) Entry {
	return Entry{
		Kind: KindRuleMatch, A: node, B: flow, C: peer,
		Prio: uint8(prio), Aux: uint16(ruleID), Depth: bytes,
	}
}

// DetTagEntry records one live detector ingress state.
func DetTagEntry(node, peer uint32, port, prio int, tag uint64, flags uint16) Entry {
	return Entry{
		Kind: KindDetTag, A: node, B: peer, C: uint32(port),
		Prio: uint8(prio), Aux: flags, Depth: int64(tag),
	}
}

// SnapEndEntry closes a snapshot section of `records` records.
func SnapEndEntry(tick, overwrites int64, records int) Entry {
	return Entry{Tick: tick, Kind: KindSnapEnd, Depth: overwrites, C: uint32(records)}
}
