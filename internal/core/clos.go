package core

import (
	"fmt"

	"repro/internal/routing"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// ClosRules generates the topology-specific optimal tagging rules for a
// layered Clos/fat-tree (§4.3): the tag counts bounces. Every ToR and
// leaf/agg switch bumps the tag by one when a packet that came down goes
// back up (ingress and egress both face a higher layer); every other move
// keeps the tag. Spines never rewrite up — they have no upward ports.
//
// maxBounces is the paper's k: paths with up to k bounces stay lossless,
// so tags 1..k+1 are lossless and a k+1-th bounce (no rule installed)
// drops the packet to the lossy queue via the TCAM safeguard.
//
// numClasses implements the multi-class sharing of §6: class c's NICs
// stamp tag c+1 (c in [0, numClasses)), classes share the bump rules, and
// the lossless tag space grows to maxBounces+numClasses instead of
// numClasses*(maxBounces+1).
func ClosRules(g *topology.Graph, maxBounces, numClasses int) *Ruleset {
	if numClasses < 1 {
		numClasses = 1
	}
	maxTag := maxBounces + numClasses
	rs := NewRuleset(g, maxTag)
	for _, sw := range g.Switches() {
		layer := g.Node(sw).Layer
		nPorts := g.PortCount(sw)
		for in := 0; in < nPorts; in++ {
			inPeer := g.Port(g.PortOn(sw, in)).Peer
			if inPeer == topology.InvalidNode || g.Node(inPeer).Kind == topology.KindHost {
				continue // injection handled by the pipeline default
			}
			inUp := g.Node(inPeer).Layer > layer
			for out := 0; out < nPorts; out++ {
				if out == in {
					continue
				}
				outPeer := g.Port(g.PortOn(sw, out)).Peer
				if outPeer == topology.InvalidNode || g.Node(outPeer).Kind == topology.KindHost {
					continue // delivery handled by the pipeline default
				}
				outUp := g.Node(outPeer).Layer > layer
				for t := 1; t <= maxTag; t++ {
					switch {
					case inUp && outUp:
						// Bounce: came down, going back up.
						if t+1 <= maxTag {
							rs.Add(Rule{Switch: sw, Tag: t, In: in, Out: out, NewTag: t + 1})
						}
						// No rule at t == maxTag: the packet has exhausted
						// its bounce budget and goes lossy.
					default:
						rs.Add(Rule{Switch: sw, Tag: t, In: in, Out: out, NewTag: t})
					}
				}
			}
		}
	}
	return rs
}

// ClosSynthesize builds the complete Clos-optimal system for the given
// ELP (which should be the up-to-maxBounces KBounce set): local
// bounce-counting rules, verified against the ELP. It uses exactly
// maxBounces+1 lossless priorities — provably the minimum (§4.4).
func ClosSynthesize(g *topology.Graph, paths []routing.Path, maxBounces int) (*System, error) {
	defer telemetry.Default.StartSpan("synth").End()
	s := &System{Graph: g, ELP: paths}
	s.Rules = ClosRules(g, maxBounces, 1)
	var violations []routing.Path
	s.Runtime, violations = BuildRuleGraph(s.Rules, paths, 1)
	if len(violations) > 0 {
		return nil, fmt.Errorf("core: clos rules leave %d ELP paths lossy (first: %s); does the ELP exceed %d bounces?",
			len(violations), violations[0].String(g), maxBounces)
	}
	if err := s.Runtime.Verify(); err != nil {
		return nil, fmt.Errorf("clos runtime graph: %w", err)
	}
	return s, nil
}

// MinLosslessQueues returns the provable lower bound on lossless
// priorities needed to keep all paths with up to k bounces lossless and
// deadlock-free (§4.4's pigeonhole argument): k+1.
func MinLosslessQueues(k int) int { return k + 1 }
