package core

import (
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Repair records a rule synthesized by RepairReplay to restore lossless
// coverage of an ELP path after rule-conflict resolution discarded a
// rewrite.
type Repair struct {
	Rule Rule
	Path routing.Path // the path that needed it
}

// RepairReplay replays every ELP path through the ruleset and synthesizes
// the missing rules so that no expected lossless path ever falls into the
// lossy queue. A missing rule (tag x, in, out) is filled with NewTag x
// when the same-tag port graph G_x stays acyclic, and x+1 otherwise —
// the same greedy spirit as Algorithm 2, applied at rule granularity.
//
// For rulesets derived without conflicts this is a no-op. It returns the
// synthesized rules (possibly none).
func RepairReplay(rs *Ruleset, paths []routing.Path, startTag int) []Repair {
	g := rs.g
	// adj[tag] is the same-tag port graph G_tag as a dense adjacency
	// indexed by PortID. It is seeded from every same-tag rule: a superset
	// of the same-tag edges runtime traffic can create, so the whole-graph
	// acyclicity tests below are conservative — a seed that is already
	// cyclic sends every repair at that tag to the next one.
	var adj [][][]int
	ensure := func(tag int) [][]int {
		for len(adj) <= tag {
			adj = append(adj, nil)
		}
		if adj[tag] == nil {
			adj[tag] = make([][]int, g.NumPorts())
		}
		return adj[tag]
	}
	for _, r := range rs.Rules() {
		if r.Tag != r.NewTag {
			continue
		}
		peer := g.Port(g.PortOn(r.Switch, r.Out)).Peer
		if peer == topology.InvalidNode || g.Node(peer).Kind == topology.KindHost {
			continue
		}
		from := g.PortOn(r.Switch, r.In)
		m := ensure(r.Tag)
		m[from] = append(m[from], int(ingressPortID(g, r.Switch, peer)))
	}

	var repairs []Repair
	for _, p := range paths {
		tag := startTag
		for i := 1; i+1 < len(p); i++ { // the source stamps, it never rewrites
			sw := p[i]
			in := g.PortToPeer(sw, p[i-1])
			out := g.PortToPeer(sw, p[i+1])
			next := rs.Classify(sw, tag, in, out)
			if next != LossyTag {
				tag = next
				continue
			}
			// Fabric miss on an expected lossless path: synthesize.
			newTag := tag
			from := g.PortOn(sw, in)
			m := ensure(tag)
			m[from] = append(m[from], int(ingressPortID(g, sw, p[i+1])))
			if trace.FindCycle(m) != nil {
				// Undo and bump.
				m[from] = m[from][:len(m[from])-1]
				newTag = tag + 1
				rs.SetMaxTag(newTag)
			}
			r := Rule{Switch: sw, Tag: tag, In: in, Out: out, NewTag: newTag}
			rs.Add(r)
			repairs = append(repairs, Repair{Rule: r, Path: p})
			tag = newTag
		}
	}
	return repairs
}

// BuildRuleGraph replays every path through the ruleset and materializes
// the runtime tagged graph: the (ingress port, tag) vertices and edges
// that actual packets on those paths traverse. This is the graph whose
// acyclicity-per-tag and monotonicity determine real deadlock freedom —
// the authoritative object to Verify.
//
// Lossy transitions produce no vertices or edges: packets in the lossy
// queue never generate PFC and so never contribute buffer dependencies.
// It also returns the paths that did not stay lossless (empty when the
// ruleset fully covers the ELP).
func BuildRuleGraph(rs *Ruleset, paths []routing.Path, startTag int) (*TaggedGraph, []routing.Path) {
	return buildRuleGraphN(rs, paths, startTag, 0)
}
