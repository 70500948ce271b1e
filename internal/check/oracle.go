// Package check is the differential verification and fuzzing subsystem:
// an independent re-implementation of the Theorem 5.1 invariants, rule-
// and decision-level differential comparison of the synthesis schemes and
// the compiled TCAM pipelines, and a seeded fuzz loop with automatic
// shrinking of failing inputs.
//
// Everything here is deliberately naive. The production verifier in
// internal/core runs one interned-ID three-color DFS over pooled
// adjacency lists; the oracle rebuilds the graph into plain Go maps from
// the exported API and runs Kahn's algorithm. The production rule table
// is dense per-switch [in][out] rows; the oracle keys a map by a
// four-field struct. Sharing no representation and no traversal algorithm is the
// point: a bug in the fast path and an identical bug here would have to
// be two independent inventions.
package check

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/topology"
)

// VerifyGraph re-checks the two §5.1 requirements on a tagged graph using
// only its exported vertex/edge listing:
//
//  1. monotonicity — no edge decreases the tag;
//  2. per-tag acyclicity — for every tag k, the subgraph of same-tag
//     edges has no cycle, checked by Kahn's algorithm (a leftover after
//     peeling all zero-in-degree vertices is a cycle).
func VerifyGraph(tg *core.TaggedGraph) error {
	edges := tg.Edges()
	for _, e := range edges {
		if e.To.Tag < e.From.Tag {
			return fmt.Errorf("check: monotonicity violated: edge (%d,%d) -> (%d,%d) decreases the tag",
				e.From.Port, e.From.Tag, e.To.Port, e.To.Tag)
		}
	}

	// Group same-tag edges by tag and Kahn-peel each per-tag subgraph.
	byTag := make(map[int][]core.TagEdge)
	for _, e := range edges {
		if e.From.Tag == e.To.Tag {
			byTag[e.From.Tag] = append(byTag[e.From.Tag], e)
		}
	}
	for tag, tagEdges := range byTag {
		succ := make(map[core.TagNode][]core.TagNode)
		indeg := make(map[core.TagNode]int)
		for _, e := range tagEdges {
			succ[e.From] = append(succ[e.From], e.To)
			indeg[e.To]++
			if _, ok := indeg[e.From]; !ok {
				indeg[e.From] = 0
			}
		}
		var queue []core.TagNode
		for n, d := range indeg {
			if d == 0 {
				queue = append(queue, n)
			}
		}
		peeled := 0
		for len(queue) > 0 {
			n := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			peeled++
			for _, m := range succ[n] {
				indeg[m]--
				if indeg[m] == 0 {
					queue = append(queue, m)
				}
			}
		}
		if peeled != len(indeg) {
			return fmt.Errorf("check: per-tag acyclicity violated: G_%d has a cycle among %d of its %d vertices",
				tag, len(indeg)-peeled, len(indeg))
		}
	}
	return nil
}

// naiveKey is the oracle's rule-match key: a plain comparable struct, in
// contrast to core's dense rule rows.
type naiveKey struct {
	sw      topology.NodeID
	tag     int
	in, out int
}

// naiveTable is the oracle's re-materialization of a ruleset: the rule
// map, the host-facing port set and the lossless tag range, all rebuilt
// from exported data.
type naiveTable struct {
	rules      map[naiveKey]int
	hostFacing map[[2]int32]bool // (switch, port num) attaches a KindHost
	maxTag     int
}

// newNaiveTable rebuilds rs into plain maps. The host-facing set comes
// straight from the topology's port list, not from Ruleset.HostFacing.
func newNaiveTable(rs *core.Ruleset) *naiveTable {
	t := emptyNaiveTable(rs.Graph(), rs.MaxTag())
	for _, r := range rs.Rules() {
		t.rules[naiveKey{r.Switch, r.Tag, r.In, r.Out}] = r.NewTag
	}
	return t
}

// emptyNaiveTable is a table over g with no rules and the given lossless
// tag range.
func emptyNaiveTable(g *topology.Graph, maxTag int) *naiveTable {
	t := &naiveTable{
		rules:      make(map[naiveKey]int),
		hostFacing: make(map[[2]int32]bool),
		maxTag:     maxTag,
	}
	for _, sw := range g.Nodes() {
		for num := 0; num < g.PortCount(sw); num++ {
			peer := g.Port(g.PortOn(sw, num)).Peer
			if peer != topology.InvalidNode && g.Node(peer).Kind == topology.KindHost {
				t.hostFacing[[2]int32{int32(sw), int32(num)}] = true
			}
		}
	}
	return t
}

// classify is the oracle's §7 decision: lossy stays lossy, exact entries
// precede the injection/delivery defaults, everything else hits the
// safeguard.
func (t *naiveTable) classify(sw topology.NodeID, tag, in, out int) int {
	if tag < 1 || tag > t.maxTag {
		return core.LossyTag
	}
	if nt, ok := t.rules[naiveKey{sw, tag, in, out}]; ok {
		return nt
	}
	if t.hostFacing[[2]int32{int32(sw), int32(in)}] || t.hostFacing[[2]int32{int32(sw), int32(out)}] {
		return tag
	}
	return core.LossyTag
}

// replay walks one path and returns the per-hop tags (mirroring
// core.Ruleset.Replay's shape: entry i is the tag on arrival at path node
// i+1) and whether the packet stayed lossless.
func (t *naiveTable) replay(g *topology.Graph, p routing.Path, startTag int) ([]int, bool) {
	tags := make([]int, 0, len(p)-1)
	tag := startTag
	for i := 0; i+1 < len(p); i++ {
		if i == 0 {
			tags = append(tags, tag)
			continue
		}
		sw := p[i]
		tag = t.classify(sw, tag, g.PortToPeer(sw, p[i-1]), g.PortToPeer(sw, p[i+1]))
		tags = append(tags, tag)
		if tag == core.LossyTag {
			for j := i + 1; j+1 < len(p); j++ {
				tags = append(tags, core.LossyTag)
			}
			return tags, false
		}
	}
	return tags, true
}

// VerifyCoverage replays every ELP path through the oracle's rebuilt
// table and demands end-to-end losslessness plus monotonically
// non-decreasing tags — the runtime face of Theorem 5.1.
func VerifyCoverage(rs *core.Ruleset, paths []routing.Path, startTag int) error {
	t := newNaiveTable(rs)
	g := rs.Graph()
	for _, p := range paths {
		tags, lossless := t.replay(g, p, startTag)
		if !lossless {
			return fmt.Errorf("check: ELP path %s goes lossy (tags %v)", p.String(g), tags)
		}
		for i := 1; i < len(tags); i++ {
			if tags[i] < tags[i-1] {
				return fmt.Errorf("check: ELP path %s tag decreases at hop %d (tags %v)",
					p.String(g), i, tags)
			}
		}
	}
	return nil
}

// VerifySystem runs the oracle over everything a synthesis produced: each
// tagged graph re-verified from scratch, and the installed rules
// re-replayed over the full ELP.
func VerifySystem(s *core.System) error {
	for _, tg := range []struct {
		name string
		g    *core.TaggedGraph
	}{
		{"brute-force", s.BruteForce},
		{"merged", s.Merged},
		{"runtime", s.Runtime},
	} {
		if tg.g == nil {
			continue
		}
		if err := VerifyGraph(tg.g); err != nil {
			return fmt.Errorf("%s graph: %w", tg.name, err)
		}
	}
	if err := VerifyCoverage(s.Rules, s.ELP, 1); err != nil {
		return err
	}
	return nil
}
