package core

import (
	"slices"

	"repro/internal/routing"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// This file holds the sharded builders of the synthesis pipeline. They
// all follow the same shape: path (or switch) ranges are fanned out to
// workers, each worker fills a shard-private structure, and shards are
// folded in shard order — so any worker count yields the same output as
// the serial walk, and par=1 runs inline with no goroutines at all.

// BruteForceN is BruteForce with an explicit worker count (0 =
// GOMAXPROCS, 1 = serial). All worker counts produce the same graph.
func BruteForceN(g *topology.Graph, paths []routing.Path, par int) *TaggedGraph {
	defer telemetry.Default.StartSpan("synth/alg1").End()
	w := sweep.Workers(par, len(paths))
	if w <= 1 {
		tg := NewTaggedGraph(g)
		for _, r := range paths {
			tg.addPath(r)
		}
		return tg
	}
	shards := sweep.Shards(len(paths), w)
	locals := make([]*TaggedGraph, len(shards))
	sweep.ForEachShard(len(paths), w, func(s sweep.Shard) {
		tg := NewTaggedGraph(g)
		for _, r := range paths[s.Lo:s.Hi] {
			tg.addPath(r)
		}
		locals[s.Index] = tg
	})
	out := locals[0]
	for _, l := range locals[1:] {
		out.mergeFrom(l)
	}
	return out
}

// replayer pushes paths through rs one after another, materializing the
// (port, tag) vertices and edges their packets traverse into tg, and
// resumes each path where it parts from the one before: the vertex at
// p[i] and the tag carried into it depend on p[0..i] only, so for the
// leading nodes two consecutive paths share, the earlier replay already
// put the same vertices and edges into tg and the tags can be picked up
// from it. Only the rewrite AT the last shared node is redone — it matches
// on the egress port, i.e. on the first node that differs. Enumerators
// emit paths prefix-first, so this skips about half the hops of a Clos
// ELP; on an unordered list it costs one comparison per path.
//
// Inlining the replay also avoids the per-path tag-slice allocation of
// Ruleset.Replay, which stays the independent per-path reference.
type replayer struct {
	rs       *Ruleset
	tg       *TaggedGraph
	startTag int

	// The previous path and, for its positions [1, n), what its replay
	// found there. n stops at the hop where prev went lossy: nothing past
	// it was replayed.
	prev routing.Path
	n    int
	at   []arrival
}

// arrival is a replayed packet's state on reaching one node of its path.
type arrival struct {
	id  int32 // vertex (ingress port, tag) in tg
	tag int   // tag carried into the node
	in  int   // ingress port number on the node
}

// replay runs p and reports whether it stayed lossless end to end.
func (r *replayer) replay(p routing.Path) bool {
	if grow := len(p) - len(r.at); grow > 0 {
		r.at = slices.Grow(r.at, grow)[:len(p)]
	}
	shared := 0
	for shared < r.n && shared < len(p) && p[shared] == r.prev[shared] {
		shared++
	}
	g := r.rs.g
	r.prev = p
	for i := max(shared, 1); i < len(p); i++ {
		tag := r.startTag
		if i > 1 {
			sw, was := p[i-1], r.at[i-1]
			tag = r.rs.Classify(sw, was.tag, was.in, g.PortToPeer(sw, p[i]))
			if tag == LossyTag {
				r.n = i
				return false
			}
		}
		port := ingressPortID(g, p[i-1], p[i])
		id := r.tg.intern(TagNode{Port: port, Tag: tag})
		if i > 1 {
			r.tg.addEdgeIDs(r.at[i-1].id, id)
		}
		r.at[i] = arrival{id: id, tag: tag, in: g.Port(port).Num}
	}
	r.n = len(p)
	return true
}

// buildRuleGraphN is BuildRuleGraph with an explicit worker count.
func buildRuleGraphN(rs *Ruleset, paths []routing.Path, startTag, par int) (*TaggedGraph, []routing.Path) {
	defer telemetry.Default.StartSpan("synth/runtime").End()
	shards := sweep.Shards(len(paths), par)
	if len(shards) == 0 {
		return NewTaggedGraph(rs.g), nil
	}
	locals := make([]*TaggedGraph, len(shards))
	lviol := make([][]routing.Path, len(shards))
	sweep.ForEachShard(len(paths), par, func(s sweep.Shard) {
		r := replayer{rs: rs, tg: NewTaggedGraph(rs.g), startTag: startTag}
		for _, p := range paths[s.Lo:s.Hi] {
			if !r.replay(p) {
				lviol[s.Index] = append(lviol[s.Index], p)
			}
		}
		locals[s.Index] = r.tg
	})
	out, violations := locals[0], lviol[0]
	for i := 1; i < len(shards); i++ {
		out.mergeFrom(locals[i])
		violations = append(violations, lviol[i]...)
	}
	return out, violations
}
