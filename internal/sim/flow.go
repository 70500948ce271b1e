package sim

import (
	"fmt"
	"time"

	"repro/internal/routing"
	"repro/internal/topology"
)

// FlowSpec describes one unidirectional transfer.
type FlowSpec struct {
	Name string
	Src  topology.NodeID // must be a host
	Dst  topology.NodeID // must be a host
	// StartTag is the NIC stamp (application class start tag); 0 means 1.
	StartTag int
	// Start and Stop bound the sending interval; Stop 0 means forever.
	Start, Stop time.Duration
	// RateBps caps the injection rate; 0 means line rate.
	RateBps int64
	// Pin forces the flow onto an explicit path (src host to dst host,
	// inclusive), bypassing the forwarding tables — the simulator's
	// equivalent of the paper's "we manually change the routing tables so
	// that the flow ... takes a 1-bounce path" (§8.1). Other traffic is
	// unaffected. The path must be adjacency-valid.
	Pin routing.Path
}

// Flow is a running transfer with its delivery statistics.
type Flow struct {
	spec FlowSpec
	hash uint64
	idx  int32 // index into Network.flows, for flow-addressed events

	// pinOut, for a pinned flow, is the egress port at each transit node
	// of the pin toward the next one, indexed like spec.Pin.
	pinOut []int16

	nextGen  int64 // earliest time the next packet may be generated
	received int64 // bytes delivered
	sent     int64 // bytes injected

	// DCQCN sender state (active when the network enables it).
	ccRate  int64 // current sending rate, bits per second
	lastCNP int64 // last CNP emission time at the receiver

	bucketNs int64
	buckets  []int64 // delivered bytes per sample bucket
	lat      latencyHist
}

// Name returns the flow's label.
func (f *Flow) Name() string { return f.spec.Name }

// Received returns total delivered bytes.
func (f *Flow) Received() int64 { return f.received }

func (f *Flow) record(now int64, bytes int64) {
	b := int(now / f.bucketNs)
	for len(f.buckets) <= b {
		f.buckets = append(f.buckets, 0)
	}
	f.buckets[b] += bytes
}

// RatePoint is one sample of a flow's delivered throughput.
type RatePoint struct {
	T    time.Duration
	Gbps float64
}

// Series returns the delivered-throughput time series up to the given
// time, one point per sample interval (zero-filled).
func (f *Flow) Series(until time.Duration) []RatePoint {
	nb := int(int64(until) / f.bucketNs)
	out := make([]RatePoint, 0, nb)
	for b := 0; b < nb; b++ {
		var bytes int64
		if b < len(f.buckets) {
			bytes = f.buckets[b]
		}
		gbps := float64(bytes*8) / float64(f.bucketNs)
		out = append(out, RatePoint{
			T:    time.Duration(int64(b) * f.bucketNs),
			Gbps: gbps, // bytes*8 bits over bucketNs ns = Gbps directly
		})
	}
	return out
}

// MeanGbps returns the average delivered rate across [from, to).
func (f *Flow) MeanGbps(from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	var bytes int64
	b0 := int(int64(from) / f.bucketNs)
	b1 := int(int64(to) / f.bucketNs)
	for b := b0; b < b1 && b < len(f.buckets); b++ {
		bytes += f.buckets[b]
	}
	return float64(bytes*8) / float64(int64(to-from))
}

// AddFlow registers a flow and schedules its start.
func (n *Network) AddFlow(spec FlowSpec) *Flow {
	if n.g.Node(spec.Src).Kind != topology.KindHost || n.g.Node(spec.Dst).Kind != topology.KindHost {
		panic(fmt.Sprintf("sim: flow %q endpoints must be hosts", spec.Name))
	}
	if spec.Pin != nil {
		if spec.Pin.Src() != spec.Src || spec.Pin.Dst() != spec.Dst {
			panic(fmt.Sprintf("sim: flow %q pin endpoints do not match", spec.Name))
		}
		if !spec.Pin.Valid(n.g) {
			panic(fmt.Sprintf("sim: flow %q pin traverses non-adjacent nodes", spec.Name))
		}
	}
	if spec.StartTag == 0 {
		spec.StartTag = 1
	}
	f := &Flow{
		spec:     spec,
		hash:     hashString(spec.Name) ^ (uint64(spec.Src)<<32 | uint64(spec.Dst)),
		idx:      int32(len(n.flows)),
		nextGen:  int64(spec.Start),
		bucketNs: int64(n.cfg.SampleInterval),
	}
	if pin := spec.Pin; pin != nil {
		f.pinOut = make([]int16, len(pin)-1)
		for i := 1; i+1 < len(pin); i++ {
			f.pinOut[i] = int16(n.g.PortToPeer(pin[i], pin[i+1]))
		}
	}
	n.flows = append(n.flows, f)
	if n.dcqcn != nil {
		n.initFlowCC(f)
	}
	rt := n.rt(spec.Src)
	rt.flows = append(rt.flows, f)
	// Hosts have a single uplink port (port 0).
	n.schedule(event{at: int64(spec.Start), kind: evFlowKick, node: int32(spec.Src), port: 0})
	return f
}

// tryHostTx runs the host NIC scheduler: if the uplink is idle, pick the
// next active, unpaused flow round-robin and serialize one MTU.
func (n *Network) tryHostTx(nodeIdx, port int) {
	rt := &n.nodes[nodeIdx]
	if !rt.isHost || len(rt.flows) == 0 {
		return
	}
	prt := &rt.ports[port]
	if prt.txBusy {
		return
	}
	var soonest int64 = -1
	for i := 0; i < len(rt.flows); i++ {
		f := rt.flows[(rt.nextFl+i)%len(rt.flows)]
		if int64(f.spec.Start) > n.now {
			cand := int64(f.spec.Start)
			if soonest < 0 || cand < soonest {
				soonest = cand
			}
			continue
		}
		if f.spec.Stop != 0 && n.now >= int64(f.spec.Stop) {
			continue
		}
		// The NIC queues by tag through the host's pipeline, which
		// rewrites nothing.
		prio := n.pl[nodeIdx].Process(f.spec.StartTag, port, port).EgressQueue
		if prio != 0 && prt.paused.has(prio) {
			continue // NIC honors PFC
		}
		if f.nextGen > n.now {
			if soonest < 0 || f.nextGen < soonest {
				soonest = f.nextGen
			}
			continue
		}
		// Generate and transmit one packet: the one place a packet is
		// written into the slab.
		rt.nextFl = (rt.nextFl + i + 1) % len(rt.flows)
		size := int32(n.cfg.MTU)
		h := n.pkts.alloc()
		n.pkts.slots[h] = packet{
			flow:   f,
			size:   size,
			tag:    int16(f.spec.StartTag),
			ttl:    int16(n.cfg.DefaultTTL),
			inPort: -1,
			born:   n.now,
		}
		f.sent += int64(size)
		if rate := f.paceRate(n); rate > 0 {
			gap := int64(size) * 8 * 1_000_000_000 / rate
			f.nextGen = n.now + gap
		}
		n.startTx(nodeIdx, prt, port, h, size)
		return
	}
	if soonest > n.now {
		n.schedule(event{at: soonest, kind: evFlowKick, node: int32(nodeIdx), port: int16(port)})
	}
}

// paceRate returns the flow's current pacing rate in bps: the DCQCN
// rate when congestion control is on (line rate pacing is then explicit),
// otherwise the spec's static limit (0 = unpaced line rate).
func (f *Flow) paceRate(n *Network) int64 {
	if n.dcqcn != nil {
		if f.ccRate < n.cfg.LinkBitsPerSec {
			return f.ccRate
		}
		return 0 // full line rate: let serialization pace
	}
	return f.spec.RateBps
}

// hashString is FNV-1a.
func hashString(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
