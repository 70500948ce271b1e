package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/routing"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// LossyTag is the reserved tag for packets that left the expected lossless
// paths. Switches map it to a lossy queue; it can only be assigned, never
// escaped (§4: the lossy fallback is the safeguard rule at the end of the
// TCAM list).
const LossyTag = 0

// Rule is one tag-rewriting match-action entry of the paper's conceptual
// switch model: a packet that arrived on ingress port In carrying Tag and
// is about to leave on egress port Out has its tag rewritten to NewTag.
type Rule struct {
	Switch topology.NodeID
	Tag    int
	In     int // ingress port number on Switch
	Out    int // egress port number on Switch
	NewTag int
}

// Conflict records two tagged-graph edges that demand different rewrites
// for the same (switch, tag, in, out) match. Conflicts can arise when
// Algorithm 2 merges two old tags at a port but splits their successors;
// DeriveRules resolves them by keeping the smaller NewTag (monotonicity is
// preserved, the packet continues on vertices that exist in the graph, and
// the low rewrite leaves repairReplay headroom to patch the losing family)
// and reports them so repairReplay can restore full ELP coverage.
type Conflict struct {
	Rule        Rule // the rule that was kept
	LoserNewTag int  // the rewrite that was discarded
}

// Ruleset is the per-switch tag rewriting table plus the implicit
// boundary behavior of the deployment (§7):
//
//   - ingress from a host-facing port keeps the packet's NIC-stamped tag
//     (injection; hosts stamp tag 1, or their class's start tag);
//   - egress to a host-facing port keeps the tag (delivery: the packet is
//     leaving the fabric);
//   - any other miss assigns LossyTag — the TCAM safeguard entry.
//
// The exact rules are stored in table layout: per node, one dense row per
// match tag, indexed [in][out] over the node's ports, allocated by the
// first rule at that (node, tag). A lookup is one index, and scanning the
// rows in (node, tag, in, out) order is Rules() order, so a rule's
// position in that scan is its dense ID (the compiled tables' rule
// attribution) and a switch's rules are one contiguous run.
type Ruleset struct {
	g       *topology.Graph
	rows    []nodeRows // by NodeID
	n       int        // installed rules
	maxTag  int        // largest lossless tag any rule can assign or match
	isHostP []bool     // dense by PortID: port attaches a host
}

// nodeRows is one node's rules: tags[t] holds np×np cells for match tag
// t, nil while no rule matches t there, np being the node's port count
// when the ruleset was made. A cell is the rewrite plus one, 0 meaning no
// rule.
type nodeRows struct {
	np   int
	tags [][]uint16
}

// Limits of the table layout: match tags fit the 8-bit tag field of a
// bundle, rewrites a cell.
const (
	maxMatchTag = 1<<8 - 1
	maxNewTag   = 1<<16 - 2
)

// NewRuleset returns an empty ruleset over g with the given largest
// lossless tag. The ruleset is laid out for g's nodes and ports as they
// are now; rules for nodes or ports wired in later do not fit it.
func NewRuleset(g *topology.Graph, maxTag int) *Ruleset {
	rs := &Ruleset{
		g:       g,
		rows:    make([]nodeRows, g.NumNodes()),
		maxTag:  maxTag,
		isHostP: make([]bool, g.NumPorts()),
	}
	for n := range rs.rows {
		rs.rows[n].np = g.PortCount(topology.NodeID(n))
	}
	for _, h := range g.Hosts() {
		for _, pid := range g.Node(h).Ports {
			if far := g.FarEnd(pid); far != topology.InvalidPort {
				rs.isHostP[far] = true
			}
		}
	}
	return rs
}

// Graph returns the topology the rules are installed over.
func (rs *Ruleset) Graph() *topology.Graph { return rs.g }

// MaxTag returns the largest lossless tag.
func (rs *Ruleset) MaxTag() int { return rs.maxTag }

// SetMaxTag raises the largest lossless tag (repairReplay may need to).
func (rs *Ruleset) SetMaxTag(t int) {
	if t > rs.maxTag {
		rs.maxTag = t
	}
}

// IsLossless reports whether tag is one of the lossless tags.
func (rs *Ruleset) IsLossless(tag int) bool { return tag >= 1 && tag <= rs.maxTag }

// HostFacing reports whether port num on sw attaches a host.
func (rs *Ruleset) HostFacing(sw topology.NodeID, num int) bool {
	p := rs.g.PortOn(sw, num)
	return p >= 0 && int(p) < len(rs.isHostP) && rs.isHostP[p]
}

// row returns the row r's match lands in, allocating it if needed. It
// panics on a match the rows cannot hold: an unknown node, a port the
// node does not have, or a tag or rewrite outside the table's range.
func (rs *Ruleset) row(r Rule) []uint16 {
	if uint(r.Switch) >= uint(len(rs.rows)) || r.Tag < 0 || r.Tag > maxMatchTag || r.NewTag < 0 || r.NewTag > maxNewTag ||
		uint(r.In) >= uint(rs.rows[r.Switch].np) || uint(r.Out) >= uint(rs.rows[r.Switch].np) {
		panic(fmt.Sprintf("core: rule outside the ruleset's topology: node %d (of %d) tag %d in %d out %d rewrite %d",
			r.Switch, len(rs.rows), r.Tag, r.In, r.Out, r.NewTag))
	}
	nr := &rs.rows[r.Switch]
	for len(nr.tags) <= r.Tag {
		nr.tags = append(nr.tags, nil)
	}
	if nr.tags[r.Tag] == nil {
		nr.tags[r.Tag] = make([]uint16, nr.np*nr.np)
	}
	return nr.tags[r.Tag]
}

// nodeRowsAt returns node sw's rows, empty past the table's end.
func (rs *Ruleset) nodeRowsAt(sw int) nodeRows {
	if sw < len(rs.rows) {
		return rs.rows[sw]
	}
	return nodeRows{}
}

// tagRow returns the row of match tag, nil when no rule matches it.
func (nr nodeRows) tagRow(tag int) []uint16 {
	if tag < len(nr.tags) {
		return nr.tags[tag]
	}
	return nil
}

// cell returns the cell of (tag, in, out), 0 (no rule) outside the rows.
func (nr nodeRows) cell(tag, in, out int) uint16 {
	row := nr.tagRow(tag)
	if row == nil || in >= nr.np || out >= nr.np {
		return 0
	}
	return row[in*nr.np+out]
}

// Add installs a rule, returning the previously installed NewTag and true
// if the key already existed with a different rewrite (the caller decides
// the resolution; Add keeps the new value). It panics on a rule the
// topology cannot carry: a node or port that does not exist, a match tag
// above 255 or a rewrite outside 0..65534.
func (rs *Ruleset) Add(r Rule) (old int, conflicted bool) {
	row := rs.row(r)
	i := r.In*rs.rows[r.Switch].np + r.Out
	prev := row[i]
	row[i] = uint16(r.NewTag + 1)
	if r.NewTag > rs.maxTag {
		rs.maxTag = r.NewTag
	}
	switch {
	case prev == 0:
		rs.n++
	case int(prev)-1 != r.NewTag:
		return int(prev) - 1, true
	}
	return 0, false
}

// Lookup returns the exact-match rewrite for (sw, tag, in, out).
func (rs *Ruleset) Lookup(sw topology.NodeID, tag, in, out int) (int, bool) {
	if uint(sw) >= uint(len(rs.rows)) {
		return 0, false
	}
	nr := &rs.rows[sw]
	if uint(tag) >= uint(len(nr.tags)) || uint(in) >= uint(nr.np) || uint(out) >= uint(nr.np) {
		return 0, false
	}
	row := nr.tags[tag]
	if row == nil || row[in*nr.np+out] == 0 {
		return 0, false
	}
	return int(row[in*nr.np+out]) - 1, true
}

// Classify runs the full §7 pipeline decision for a packet at switch sw
// that arrived on ingress port in with the given tag and is destined for
// egress port out. It returns the packet's new tag; LossyTag means the
// packet must be enqueued lossy.
func (rs *Ruleset) Classify(sw topology.NodeID, tag, in, out int) int {
	if !rs.IsLossless(tag) {
		return LossyTag // once lossy, always lossy
	}
	if nt, ok := rs.Lookup(sw, tag, in, out); ok {
		return nt // exact TCAM entries precede the defaults
	}
	if rs.HostFacing(sw, in) {
		return tag // injection: trust the NIC stamp
	}
	if rs.HostFacing(sw, out) {
		return tag // delivery: leaving the fabric
	}
	return LossyTag
}

// Len returns the number of installed rules.
func (rs *Ruleset) Len() int { return rs.n }

// eachAt calls f on sw's rules in (tag, in, out) order.
func (rs *Ruleset) eachAt(sw topology.NodeID, f func(Rule)) {
	nr := &rs.rows[sw]
	for tag, row := range nr.tags {
		for i, c := range row {
			if c != 0 {
				f(Rule{Switch: sw, Tag: tag, In: i / nr.np, Out: i % nr.np, NewTag: int(c) - 1})
			}
		}
	}
}

// Each calls f on every rule in Rules() order, straight off the rows,
// for a reader that would otherwise copy Rules() only to walk it once.
func (rs *Ruleset) Each(f func(Rule)) {
	for sw := range rs.rows {
		rs.eachAt(topology.NodeID(sw), f)
	}
}

// Rules returns all rules in deterministic order: ascending (switch,
// tag, in, out).
func (rs *Ruleset) Rules() []Rule {
	out := make([]Rule, 0, rs.n)
	rs.Each(func(r Rule) { out = append(out, r) })
	return out
}

// RulesAt returns the rules installed at one switch, in the same order
// (nil when it has none).
func (rs *Ruleset) RulesAt(sw topology.NodeID) []Rule {
	if uint(sw) >= uint(len(rs.rows)) {
		return nil
	}
	var out []Rule
	rs.eachAt(sw, func(r Rule) { out = append(out, r) })
	return out
}

// DeriveRules converts a tagged graph into the match-action rules each
// switch needs: edge (A_i, x) -> (B_j, y) becomes the rule at A matching
// (tag x, InPort i, OutPort toward B) rewriting to y. Edges whose tail
// port is on a host (host-level ELP paths) produce no rule — hosts stamp
// tags, they do not rewrite them.
//
// When two edges demand different rewrites for the same match (see
// Conflict), the smaller NewTag wins: both candidates are >= the match
// tag (monotonic either way) and both target vertices exist in the graph,
// but the smaller one leaves more headroom for repairReplay to patch the
// losing family's continuation without minting a new tag. Conflicts on
// host-facing egress are benign — the tag is leaving the fabric and
// pauses nothing downstream — so only fabric conflicts are reported,
// sorted by (switch, tag, in, out, losing rewrite).
func DeriveRules(tg *TaggedGraph) (*Ruleset, []Conflict) {
	return deriveRulesN(tg, 0)
}

// deriveRulesN is DeriveRules with an explicit worker count. The vertices
// are bucketed by the switch that owns their port, and workers take
// disjoint ranges of switches, each writing only its own switches' rows;
// a match's candidates all meet in one bucket, which keeps the minimum
// rewrite, so the result is independent of both edge order and worker
// count. The egress port toward an edge's head is the far end of the
// head's ingress link: one array walk, no pair lookup.
func deriveRulesN(tg *TaggedGraph, par int) (*Ruleset, []Conflict) {
	defer telemetry.Default.StartSpan("synth/rules").End()
	g := tg.g
	rs := NewRuleset(g, tg.maxTag)

	// Bucket the vertices of forwarding nodes by owner (counting sort).
	start := make([]int32, g.NumNodes()+1)
	for _, n := range tg.nodes {
		start[g.Port(n.Port).Node+1]++
	}
	var sws []topology.NodeID // nodes that own a vertex and rewrite
	for sw := 0; sw < g.NumNodes(); sw++ {
		if start[sw+1] > 0 && g.Node(topology.NodeID(sw)).Kind != topology.KindHost {
			sws = append(sws, topology.NodeID(sw))
		}
		start[sw+1] += start[sw]
	}
	byOwner := make([]int32, len(tg.nodes))
	fill := slices.Clone(start[:g.NumNodes()])
	for id, n := range tg.nodes {
		sw := g.Port(n.Port).Node
		byOwner[fill[sw]] = int32(id)
		fill[sw]++
	}

	// derive fills the rows of sws[lo:hi], returning how many rules it
	// installed and every rewrite it saw lose to a smaller one.
	derive := func(lo, hi int) (installed int, losers []Conflict) {
		for _, sw := range sws[lo:hi] {
			np := rs.rows[sw].np
			for _, id := range byOwner[start[sw]:start[sw+1]] {
				from := tg.nodes[id]
				in := g.Port(from.Port).Num
				for i := tg.succHead[id]; i != 0; i = tg.succPool[i-1].next {
					to := tg.nodes[tg.succPool[i-1].node]
					far := g.FarEnd(to.Port)
					if far == topology.InvalidPort || g.Port(far).Node != sw {
						panic(fmt.Sprintf("core: tagged edge between non-adjacent %s and %s",
							g.Node(sw).Name, g.Node(g.Port(to.Port).Node).Name))
					}
					r := Rule{Switch: sw, Tag: from.Tag, In: in, Out: g.Port(far).Num, NewTag: to.Tag}
					row := rs.row(r)
					c := &row[r.In*np+r.Out]
					switch prev := int(*c) - 1; {
					case prev < 0:
						*c = uint16(to.Tag + 1)
						installed++
					case to.Tag < prev:
						*c = uint16(to.Tag + 1)
						r.NewTag = prev
						losers = append(losers, Conflict{Rule: r, LoserNewTag: prev})
					case to.Tag > prev:
						losers = append(losers, Conflict{Rule: r, LoserNewTag: to.Tag})
					}
				}
			}
		}
		return installed, losers
	}

	var losers []Conflict
	shards := sweep.Shards(len(sws), sweep.Workers(par, len(sws)))
	if len(shards) <= 1 {
		rs.n, losers = derive(0, len(sws))
	} else {
		counts := make([]int, len(shards))
		shardLosers := make([][]Conflict, len(shards))
		sweep.ForEachShard(len(sws), len(shards), func(s sweep.Shard) {
			counts[s.Index], shardLosers[s.Index] = derive(s.Lo, s.Hi)
		})
		for i := range shards {
			rs.n += counts[i]
			losers = append(losers, shardLosers[i]...)
		}
	}

	// Report fabric conflicts: one entry per distinct losing rewrite,
	// against the final (minimum) winner, in canonical order.
	var conflicts []Conflict
	if len(losers) > 0 {
		seen := make(map[Conflict]bool, len(losers))
		for _, l := range losers {
			l.Rule.NewTag, _ = rs.Lookup(l.Rule.Switch, l.Rule.Tag, l.Rule.In, l.Rule.Out)
			if seen[l] {
				continue
			}
			seen[l] = true
			peer := g.Port(g.PortOn(l.Rule.Switch, l.Rule.Out)).Peer
			if peer != topology.InvalidNode && g.Node(peer).Kind == topology.KindHost {
				continue // benign: host-facing egress
			}
			conflicts = append(conflicts, l)
		}
		sort.Slice(conflicts, func(i, j int) bool {
			a, b := conflicts[i], conflicts[j]
			if a.Rule.Switch != b.Rule.Switch {
				return a.Rule.Switch < b.Rule.Switch
			}
			if a.Rule.Tag != b.Rule.Tag {
				return a.Rule.Tag < b.Rule.Tag
			}
			if a.Rule.In != b.Rule.In {
				return a.Rule.In < b.Rule.In
			}
			if a.Rule.Out != b.Rule.Out {
				return a.Rule.Out < b.Rule.Out
			}
			return a.LoserNewTag < b.LoserNewTag
		})
	}
	return rs, conflicts
}

// ReplayResult is the outcome of pushing one ELP path through a ruleset.
type ReplayResult struct {
	Tags     []int // tag carried on arrival at each node after the first
	Lossless bool  // true iff the packet stayed lossless end to end
	DropHop  int   // index into the path of the switch where it went lossy (-1)
}

// Replay walks one path through the ruleset, starting with the NIC stamp
// startTag, and reports the tag sequence. It is the runtime ground truth:
// whatever the tagged graph says, the switches execute this.
func (rs *Ruleset) Replay(p routing.Path, startTag int) ReplayResult {
	res := ReplayResult{Lossless: true, DropHop: -1}
	g := rs.g
	tag := startTag
	for i := 0; i+1 < len(p); i++ {
		if i == 0 {
			// The source — a host NIC, a relay server, or (for
			// switch-level paths) the edge switch whose host-facing
			// injection default applies — stamps the start tag.
			res.Tags = append(res.Tags, tag)
			continue
		}
		sw := p[i]
		in := g.PortToPeer(sw, p[i-1])
		out := g.PortToPeer(sw, p[i+1])
		tag = rs.Classify(sw, tag, in, out)
		if tag == LossyTag {
			res.Lossless = false
			res.DropHop = i
			// Tag stays lossy for the remaining hops.
			for j := i; j+1 < len(p); j++ {
				res.Tags = append(res.Tags, LossyTag)
			}
			return res
		}
		res.Tags = append(res.Tags, tag)
	}
	return res
}
