package sim

import (
	"fmt"
	"sort"
	"strings"
)

// pausedQueue identifies one currently-paused lossless egress queue.
type pausedQueue struct {
	node int
	port int
	prio int
}

// DetectDeadlock inspects the live PFC state and returns a cycle of
// mutually-waiting egress queues if one exists: egress queue X at switch
// A (paused by downstream B) waits on every paused egress queue at B that
// holds packets charged to the ingress queue whose occupancy keeps the
// pause asserted. A cycle in this wait-for graph is a live deadlock — no
// queue in it can ever drain (the paper's §2: once formed, a deadlock
// does not go away).
//
// The returned strings describe the cycle members for diagnostics; nil
// means no deadlock at this instant. It is the raw scan
// (detectCycleQueues, what the periodic probes test) plus the formatter,
// which those probes run only at the first onset they report.
func (n *Network) DetectDeadlock() []string {
	return n.cycleStrings(n.detectCycleQueues())
}

// cycleStrings names a detected cycle's queues; nil for no cycle.
func (n *Network) cycleStrings(cyc []pausedQueue) []string {
	if cyc == nil {
		return nil
	}
	out := make([]string, 0, len(cyc))
	for _, q := range cyc {
		rt := &n.nodes[q.node]
		out = append(out, fmt.Sprintf("%s->%s prio %d",
			n.g.Node(rt.id).Name, n.g.Node(rt.ports[q.port].peer).Name, q.prio))
	}
	sort.Strings(out[1:]) // stable-ish presentation beyond the entry point
	return out
}

// Deadlocked reports whether a pause-wait cycle currently exists.
func (n *Network) Deadlocked() bool { return n.detectCycleQueues() != nil }

// DeadlockString renders a detected cycle for logs.
func DeadlockString(cycle []string) string { return strings.Join(cycle, " | ") }
