// Package dataplane is the frame-level switch pipeline of §7: the
// three-step match-action sequence (DSCP-based ingress priority queuing,
// ingress ACL with DSCP rewriting, ACL-based egress priority queuing)
// executed on encoded RoCEv2 frames via compressed TCAM entries —
// everything the paper implemented on Broadcom ASICs, in bytes.
//
// It exists to close the loop between the abstract Ruleset used by the
// algorithms and the wire: tests assert that pushing real frames through
// the TCAM produces exactly the tag sequences core.Ruleset.Replay
// predicts.
package dataplane

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/tcam"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Verdict is the pipeline's decision for one frame.
type Verdict struct {
	// IngressQueue and EgressQueue index priority queues; 0 is lossy.
	IngressQueue int
	EgressQueue  int
	// NewTag is the rewritten DSCP (LossyTag when demoted).
	NewTag int
	// Drop is set when the frame must be discarded (TTL exhausted).
	Drop bool
	// DropReason explains a drop.
	DropReason string
}

// Switch is one forwarding element's installed state.
type Switch struct {
	node    topology.NodeID
	entries []tcam.Entry // this switch's entries, TCAM order
	rules   *core.Ruleset
	maxTag  int
}

// NewSwitch compiles the per-switch TCAM from a synthesized ruleset.
// The abstract ruleset is retained only for the injection/delivery
// defaults (host-facing port knowledge); all rewrite decisions go through
// the compressed entries, which is the point.
func NewSwitch(node topology.NodeID, rs *core.Ruleset) *Switch {
	return &Switch{
		node:    node,
		entries: tcam.Compress(rs.RulesAt(node)),
		rules:   rs,
		maxTag:  rs.MaxTag(),
	}
}

// Entries returns the number of TCAM entries installed.
func (s *Switch) Entries() int { return len(s.entries) }

// Process runs one encoded frame through the §7 pipeline: parse DSCP,
// classify ingress, TCAM lookup (with the safeguard lossy default),
// rewrite DSCP + decrement TTL in place, classify egress by the NEW tag.
func (s *Switch) Process(frame []byte, in, out int) (Verdict, error) {
	pkt, err := wire.DecodeRoCEv2(frame)
	if err != nil {
		return Verdict{}, fmt.Errorf("dataplane: %w", err)
	}
	var v Verdict
	tag := pkt.Tag()
	v.IngressQueue = s.queueOf(tag)

	ttl, err := wire.DecrementTTL(frame)
	if err != nil {
		return Verdict{}, err
	}
	if ttl == 0 {
		v.Drop = true
		v.DropReason = "ttl expired"
		return v, nil
	}

	// Step 2: TCAM lookup; first-hit wins; misses fall to the boundary
	// defaults and then the lossy safeguard.
	newTag, hit := tcam.Lookup(s.entries, s.node, tag, in, out)
	switch {
	case hit:
	case !s.lossless(tag):
		newTag = core.LossyTag
	case s.rules.HostFacing(s.node, in), s.rules.HostFacing(s.node, out):
		newTag = tag // injection / delivery
	default:
		newTag = core.LossyTag // the last TCAM entry: safeguard
	}
	v.NewTag = newTag
	if newTag != tag {
		if _, err := wire.RewriteTag(frame, newTag); err != nil {
			return Verdict{}, err
		}
	}
	v.EgressQueue = s.queueOf(newTag)
	return v, nil
}

func (s *Switch) lossless(tag int) bool { return tag >= 1 && tag <= s.maxTag }

func (s *Switch) queueOf(tag int) int {
	if s.lossless(tag) {
		return tag
	}
	return 0
}

// Fabric is every switch's compiled dataplane.
type Fabric struct {
	g        *topology.Graph
	switches map[topology.NodeID]*Switch
}

// Compile builds the dataplane for every switch in the topology.
func Compile(g *topology.Graph, rs *core.Ruleset) *Fabric {
	f := &Fabric{g: g, switches: make(map[topology.NodeID]*Switch)}
	for _, sw := range g.Switches() {
		f.switches[sw] = NewSwitch(sw, rs)
	}
	return f
}

// Switch returns one node's dataplane.
func (f *Fabric) Switch(n topology.NodeID) *Switch { return f.switches[n] }

// TotalEntries sums TCAM entries fabric-wide.
func (f *Fabric) TotalEntries() int {
	t := 0
	for _, s := range f.switches {
		t += s.Entries()
	}
	return t
}

// ForwardFrame walks an encoded frame along a path of nodes, running
// every switch's pipeline, and returns the tag observed at each arrival
// (the byte-level analogue of core.Ruleset.Replay). The frame is
// modified in place like real forwarding would.
func (f *Fabric) ForwardFrame(frame []byte, path []topology.NodeID) ([]int, error) {
	var tags []int
	for i := 0; i+1 < len(path); i++ {
		cur := path[i]
		if i == 0 || !f.g.Node(cur).Kind.IsSwitch() {
			// Source stamps; relay-host hops also rewrite below if they
			// carry rules, but plain endpoints just emit.
			pkt, err := wire.DecodeRoCEv2(frame)
			if err != nil {
				return nil, err
			}
			tags = append(tags, pkt.Tag())
			continue
		}
		in := f.g.PortToPeer(cur, path[i-1])
		out := f.g.PortToPeer(cur, path[i+1])
		sw := f.switches[cur]
		if sw == nil {
			return nil, fmt.Errorf("dataplane: no switch compiled for %s", f.g.Node(cur).Name)
		}
		v, err := sw.Process(frame, in, out)
		if err != nil {
			return nil, err
		}
		if v.Drop {
			return tags, fmt.Errorf("dataplane: dropped at %s: %s", f.g.Node(cur).Name, v.DropReason)
		}
		tags = append(tags, v.NewTag)
	}
	return tags, nil
}
