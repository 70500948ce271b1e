package sim

import (
	"time"

	"repro/internal/trace"
)

// RecoveryStats counts what a detect-and-break deadlock recovery scheme
// had to do. The paper's §1 dismisses this class of solutions because
// breaking a deadlock does not remove its cause: "these solutions do not
// address the root cause of the problem, and hence cannot guarantee that
// the deadlock would not immediately reappear." EnableRecovery lets the
// simulator quantify exactly that: Detections keeps climbing while the
// CBD-forming traffic persists.
type RecoveryStats struct {
	// Detections counts deadlock events the monitor saw (reformations
	// included).
	Detections int
	// PacketsDropped counts lossless packets sacrificed to break cycles.
	PacketsDropped int64
	// BytesDropped is their volume.
	BytesDropped int64
}

// EnableRecovery installs a detect-and-break monitor: every interval it
// scans for a live pause-wait cycle and, if one exists, breaks it by
// discarding the contents of one egress queue in the cycle (the classic
// recovery action — equivalent to a watchdog flushing a stuck queue).
// Returns the stats structure, updated in place as the run progresses.
func (n *Network) EnableRecovery(interval time.Duration) *RecoveryStats {
	stats := &RecoveryStats{}
	p := int64(interval)
	n.addTimer(timerRT{kind: timerRecoveryScan, period: p, rstats: stats}, n.now+p)
	return stats
}

// waitGraph builds the full pause-wait graph: vertices are the paused,
// non-empty lossless egress queues, and edge x -> y means x cannot
// drain until queue y (at x's downstream peer, holding packets charged
// to the ingress x feeds) does. Vertex and adjacency order are
// deterministic (ascending node, port, priority). Shared by deadlock
// detection (which wants a cycle) and the flight recorder's incident
// snapshot (which wants the whole graph).
func (n *Network) waitGraph() (nodes []pausedQueue, adj [][]int) {
	index := map[pausedQueue]int{}
	for ni := range n.nodes {
		rt := &n.nodes[ni]
		for pi := range rt.ports {
			stuck := rt.ports[pi].stuck()
			if stuck == 0 {
				continue
			}
			for prio := 1; prio < n.nQueues; prio++ {
				if stuck.has(prio) {
					q := pausedQueue{ni, pi, prio}
					index[q] = len(nodes)
					nodes = append(nodes, q)
				}
			}
		}
	}
	if len(nodes) == 0 {
		return nil, nil
	}
	adj = make([][]int, len(nodes))
	for xi, x := range nodes {
		art := &n.nodes[x.node]
		peer := art.ports[x.port].peer
		peerPort := int(art.ports[x.port].peerPort)
		brt := &n.nodes[peer]
		for pi := range brt.ports {
			prt := &brt.ports[pi]
			stuck := prt.stuck()
			if stuck == 0 {
				continue
			}
			for prio := 1; prio < n.nQueues; prio++ {
				if !stuck.has(prio) {
					continue
				}
				holds := false
				for _, h := range prt.egress[prio].queued() {
					if pk := &n.pkts.slots[h]; int(pk.inPort) == peerPort && int(pk.inPrio) == x.prio {
						holds = true
						break
					}
				}
				if holds {
					if yi, ok := index[pausedQueue{int(peer), pi, prio}]; ok {
						adj[xi] = append(adj[xi], yi)
					}
				}
			}
		}
	}
	return nodes, adj
}

// stuck returns the port's lossless egress queues that hold packets and
// are paused by the downstream peer: the wait-for graph's vertices.
func (prt *portRT) stuck() prioMask { return prt.paused & prt.nonEmpty &^ 1 }

// detectCycleQueues is the raw deadlock scan: one cycle of the live
// wait-for graph as queue identities, nil when there is none.
func (n *Network) detectCycleQueues() []pausedQueue {
	nodes, adj := n.waitGraph()
	if nodes == nil {
		return nil
	}
	cycIdx := trace.FindCycle(adj)
	if cycIdx == nil {
		return nil
	}
	out := make([]pausedQueue, len(cycIdx))
	for i, idx := range cycIdx {
		out[i] = nodes[idx]
	}
	return out
}

// flushQueue discards every packet in one egress queue, releasing their
// ingress accounting (which un-sticks the upstream pauses) and counting
// the sacrifice. The drops are attributed: DropStats.RecoveryFlush (so a
// soak's Total ledger balances and WatchdogStats.Clean still reads clean
// after a successful detect-and-break — deliberate sacrifices are not
// lossless-invariant violations) and a per-packet "recovery-flush" trace
// drop.
func (n *Network) flushQueue(q pausedQueue, stats *RecoveryStats) {
	rt := &n.nodes[q.node]
	prt := &rt.ports[q.port]
	for prt.nonEmpty.has(q.prio) {
		h, pk := n.dequeue(prt, q.prio)
		stats.PacketsDropped++
		stats.BytesDropped += int64(pk.size)
		n.drops.RecoveryFlush++
		n.trace(TraceEvent{Kind: "drop", Node: n.nodeName(rt.id),
			Flow: pk.flow.spec.Name, Reason: "recovery-flush"})
		if n.det != nil && pk.inPrio > 0 {
			n.det.eng.Dequeue(q.node, int(pk.inPort), int(pk.inPrio), q.port, q.prio)
		}
		n.releaseIngress(rt, pk)
		n.pkts.release(h)
	}
	n.dlClearCheck()
}
