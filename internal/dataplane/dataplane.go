// Package dataplane is the frame-level switch pipeline of §7: the
// three-step match-action sequence (DSCP-based ingress priority queuing,
// ingress ACL with DSCP rewriting, ACL-based egress priority queuing)
// executed on encoded RoCEv2 frames via compressed TCAM entries compiled
// into tcam.Tables — everything the paper implemented on Broadcom ASICs,
// in bytes.
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

// Verdict is the pipeline's decision for one frame: the §7 queues and
// tag (queue 0 is lossy; NewTag is LossyTag when demoted), or a drop.
type Verdict struct {
	tcam.QueueDecision
	// Drop is set when the frame must be discarded (TTL exhausted).
	Drop bool
	// DropReason explains a drop.
	DropReason string
}

// Switch is one forwarding element's installed state: its compressed
// TCAM entries, compiled into the table the ASIC's pipeline executes.
type Switch struct {
	entries int
	pl      tcam.Pipeline
}

// NewSwitch compresses node's rules into TCAM entries and compiles them.
// The abstract ruleset contributes only what a switch config holds
// outside its TCAM — the lossless tag range and which ports face hosts;
// every rewrite decision comes from the compressed entries, which is the
// point.
func NewSwitch(node topology.NodeID, rs *core.Ruleset) *Switch {
	entries := tcam.Compress(rs.RulesAt(node))
	t := tcam.CompileEntries(rs, node, entries)
	return &Switch{entries: len(entries), pl: tcam.NewPipeline(t, rs.MaxTag())}
}

// Entries returns the number of TCAM entries installed.
func (s *Switch) Entries() int { return s.entries }

// Process runs one encoded frame through the §7 pipeline: parse DSCP,
// run the switch's tcam.Pipeline (ingress queue, TCAM decision with the
// §4 defaults and the lossy safeguard, egress queue by the NEW tag),
// then decrement TTL and rewrite DSCP in place.
func (s *Switch) Process(frame []byte, in, out int) (Verdict, error) {
	pkt, err := wire.DecodeRoCEv2(frame)
	if err != nil {
		return Verdict{}, fmt.Errorf("dataplane: %w", err)
	}
	tag := pkt.Tag()
	v := Verdict{QueueDecision: s.pl.Process(tag, in, out)}

	ttl, err := wire.DecrementTTL(frame)
	if err != nil {
		return Verdict{}, err
	}
	if ttl == 0 {
		v.Drop = true
		v.DropReason = "ttl expired"
		return v, nil
	}
	if v.NewTag != tag {
		if _, err := wire.RewriteTag(frame, v.NewTag); err != nil {
			return Verdict{}, err
		}
	}
	return v, nil
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
