package core

import (
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

// BruteForceN implements the paper's Algorithm 1: walk every expected
// lossless path and increase the tag by one at every hop. The resulting
// tagged graph trivially satisfies both deadlock-freedom requirements:
// each G_k has no edges at all (every edge goes k -> k+1), and every tag
// change is monotonic.
//
// Tags start at 1 on the first hop: for a path n0 > n1 > ... > nm the
// vertex at n1's ingress carries tag 1 and the vertex at nm's ingress
// carries tag m, matching the walk-through in the paper's Figure 5 /
// Table 3 where tag T+1 appears only at destination endpoints.
//
// par is the worker count (0 = GOMAXPROCS, 1 = serial). All worker counts
// produce the same graph.
func BruteForceN(g *topology.Graph, paths []routing.Path, par int) *TaggedGraph {
	defer telemetry.Default.StartSpan("synth/alg1").End()
	return bruteForce(g, newHopPorts(g, paths, par), par)
}

// bruteForce builds Algorithm 1's graph from an ELP in port space.
func bruteForce(g *topology.Graph, hp hopPorts, par int) *TaggedGraph {
	n := len(hp.off) - 1
	w := sweep.Workers(par, n)
	if w <= 1 {
		tg := NewTaggedGraph(g)
		for i := 0; i < n; i++ {
			tg.addPath(hp.at(i))
		}
		return tg
	}
	shards := sweep.Shards(n, w)
	locals := make([]*TaggedGraph, len(shards))
	sweep.ForEachShard(n, w, func(s sweep.Shard) {
		tg := NewTaggedGraph(g)
		for i := s.Lo; i < s.Hi; i++ {
			tg.addPath(hp.at(i))
		}
		locals[s.Index] = tg
	})
	out := locals[0]
	for _, l := range locals[1:] {
		out.mergeFrom(l)
	}
	return out
}

// replayer pushes paths through rs one after another from the NIC stamp,
// recording for each what a packet on it meets: per hop, the ingress port
// and the tag carried into it, and the rule match keys consulted on the
// way (hits and misses alike — a key that later gains an entry changes
// the outcome too). Synthesis interns the hops into the runtime graph;
// Resynth packs them into chains and indexes the keys.
//
// Each replay resumes where the path parts from the one before: hop j and
// the keys consulted before it depend on the path's first j+2 nodes only,
// so for the nodes two consecutive paths share, the previous replay
// already computed them under the same rules. Only the rewrite AT the
// last shared node is redone — it matches on the egress port, i.e. on the
// first node that differs. Resuming is capped where the previous path
// went lossy: nothing past that hop was replayed. Enumerators emit paths
// prefix-first, so this skips about half the hops of a Clos ELP; on an
// unordered list it costs one comparison per path.
//
// Ruleset.Replay stays the independent per-path reference.
type replayer struct {
	rs       *Ruleset
	startTag int
	prev     routing.Path
	hops     []replayHop // the last replay's, up to the hop that went lossy
	keys     []uint64    // the match keys the last replay consulted
}

// replayHop is a replayed packet's state on entering one node of its
// path: hops[j] is the entry into p[j+1].
type replayHop struct {
	port  topology.PortID // ingress port
	tag   int             // tag carried in
	nkeys int32           // len(keys) once the tag was decided
}

// reset starts a walk under rs; nothing of an earlier walk is resumed.
func (r *replayer) reset(rs *Ruleset, startTag int) {
	r.rs, r.startTag, r.prev = rs, startTag, nil
}

// replay runs p, whose hop ports are ports, and reports whether it stayed
// lossless end to end. r.hops and r.keys then describe p's replay; hops
// before from were resumed from the previous call unchanged. The rewrite
// at p[j] matches on the port p[j] was entered by, ports[j-1], and the
// port it leaves on, the far end of the link p[j+1] is entered by,
// ports[j].
func (r *replayer) replay(p routing.Path, ports []topology.PortID) (from int, ok bool) {
	shared := 0
	for shared < len(p) && shared < len(r.prev) && p[shared] == r.prev[shared] {
		shared++
	}
	r.prev = p
	from = min(max(shared-1, 0), len(r.hops))
	hops, keys, tag := r.hops[:from], r.keys[:0], r.startTag
	if from > 0 {
		last := hops[from-1]
		keys, tag = r.keys[:last.nkeys], last.tag
	}
	rs := r.rs
	g := rs.g
	ok = true
	for j := from; j < len(ports); j++ {
		if j > 0 {
			at := g.Port(ports[j-1])
			in, out := at.Num, egressNum(g, ports[j])
			if k, kok := matchKey(at.Node, tag, in, out); kok {
				keys = append(keys, k)
			}
			if tag = rs.Classify(at.Node, tag, in, out); tag == LossyTag {
				ok = false
				break
			}
		}
		hops = append(hops, replayHop{port: ports[j], tag: tag, nkeys: int32(len(keys))})
	}
	r.hops, r.keys = hops, keys
	return from, ok
}

// buildRuleGraphN is BuildRuleGraph with an explicit worker count, over
// paths whose hop ports are hp.
func buildRuleGraphN(rs *Ruleset, paths []routing.Path, hp hopPorts, startTag, par int) (*TaggedGraph, []routing.Path) {
	defer telemetry.Default.StartSpan("synth/runtime").End()
	shards := sweep.Shards(len(paths), par)
	if len(shards) == 0 {
		return NewTaggedGraph(rs.g), nil
	}
	locals := make([]*TaggedGraph, len(shards))
	lviol := make([][]routing.Path, len(shards))
	sweep.ForEachShard(len(paths), par, func(s sweep.Shard) {
		r := replayer{rs: rs, startTag: startTag}
		tg := NewTaggedGraph(rs.g)
		var ids []int32 // ids[j]: r.hops[j]'s vertex in tg
		for i := s.Lo; i < s.Hi; i++ {
			from, ok := r.replay(paths[i], hp.at(i))
			// The resumed hops, and the edges between them, are in tg.
			ids = ids[:from]
			for j := from; j < len(r.hops); j++ {
				h := r.hops[j]
				id := tg.intern(TagNode{Port: h.port, Tag: h.tag})
				if j > 0 {
					tg.addEdgeIDs(ids[j-1], id)
				}
				ids = append(ids, id)
			}
			if !ok {
				lviol[s.Index] = append(lviol[s.Index], paths[i])
			}
		}
		locals[s.Index] = tg
	})
	out, violations := locals[0], lviol[0]
	for i := 1; i < len(shards); i++ {
		out.mergeFrom(locals[i])
		violations = append(violations, lviol[i]...)
	}
	return out, violations
}
