package core

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

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

// ruleKey packs a rule match (switch, tag, in, out) into one uint64 —
// 24 bits of switch, 8 of tag, 16 each of port number — so the rule
// table hits Go's fast integer map path on the replay hot loop. The
// field widths cover fabrics orders of magnitude beyond Table 5's;
// packRuleKey panics rather than silently truncating.
type ruleKey uint64

func packRuleKey(sw topology.NodeID, tag, in, out int) ruleKey {
	if uint64(uint32(sw)) >= 1<<24 || uint64(uint32(tag)) >= 1<<8 ||
		uint64(uint32(in)) >= 1<<16 || uint64(uint32(out)) >= 1<<16 {
		panic(fmt.Sprintf("core: rule key out of range: sw=%d tag=%d in=%d out=%d", sw, tag, in, out))
	}
	return ruleKey(uint64(sw)<<40 | uint64(tag)<<32 | uint64(in)<<16 | uint64(out))
}

// packRuleKeyOK is packRuleKey for lookups: out-of-range fields mean the
// key cannot be installed, reported as ok=false instead of a panic.
func packRuleKeyOK(sw topology.NodeID, tag, in, out int) (ruleKey, bool) {
	if sw < 0 || sw >= 1<<24 || tag < 0 || tag >= 1<<8 ||
		in < 0 || in >= 1<<16 || out < 0 || out >= 1<<16 {
		return 0, false
	}
	return ruleKey(uint64(sw)<<40 | uint64(tag)<<32 | uint64(in)<<16 | uint64(out)), true
}

func (k ruleKey) unpack() (sw topology.NodeID, tag, in, out int) {
	return topology.NodeID(k >> 40), int(k >> 32 & 0xff), int(k >> 16 & 0xffff), int(k & 0xffff)
}

// Conflict records two tagged-graph edges that demand different rewrites
// for the same (switch, tag, in, out) match. Conflicts can arise when
// Algorithm 2 merges two old tags at a port but splits their successors;
// DeriveRules resolves them by keeping the smaller NewTag (monotonicity is
// preserved, the packet continues on vertices that exist in the graph, and
// the low rewrite leaves RepairReplay headroom to patch the losing family)
// and reports them so RepairReplay can restore full ELP coverage.
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
type Ruleset struct {
	g       *topology.Graph
	rules   map[ruleKey]int
	maxTag  int    // largest lossless tag any rule can assign or match
	isHostP []bool // dense by PortID: port attaches a host

	// gen counts the mutations (Add, SetMaxTag) since construction, for
	// readers that memoize Classify results — the simulator's per-switch
	// classify tables — to drop their copies.
	gen uint64

	// sorted memoizes the installed keys in ascending order — Rules()
	// order, since a packed key compares like its (switch, tag, in, out)
	// tuple. A key's position is the rule's dense ID (the flight
	// recorder's TCAM attribution), and a switch's rules are one
	// contiguous run. Built on first use and dropped by every mutation;
	// atomic so concurrent readers of a settled ruleset may race to build
	// it (they store identical slices).
	sorted atomic.Pointer[[]ruleKey]
}

// NewRuleset returns an empty ruleset over g with the given largest
// lossless tag.
func NewRuleset(g *topology.Graph, maxTag int) *Ruleset {
	rs := &Ruleset{
		g:       g,
		rules:   make(map[ruleKey]int),
		maxTag:  maxTag,
		isHostP: make([]bool, g.NumPorts()),
	}
	var nbuf []topology.NodeID
	for _, h := range g.Hosts() {
		nbuf = g.Neighbors(h, nbuf[:0])
		for _, sw := range nbuf {
			p := g.PortToPeer(sw, h)
			if p >= 0 {
				rs.isHostP[g.PortOn(sw, p)] = true
			}
		}
	}
	return rs
}

// Graph returns the topology the rules are installed over.
func (rs *Ruleset) Graph() *topology.Graph { return rs.g }

// MaxTag returns the largest lossless tag.
func (rs *Ruleset) MaxTag() int { return rs.maxTag }

// SetMaxTag raises the largest lossless tag (RepairReplay may need to).
func (rs *Ruleset) SetMaxTag(t int) {
	if t > rs.maxTag {
		rs.gen++
		rs.maxTag = t
	}
}

// Generation changes whenever a Classify result may have: after every
// Add and every SetMaxTag that raised the bound.
func (rs *Ruleset) Generation() uint64 { return rs.gen }

// IsLossless reports whether tag is one of the lossless tags.
func (rs *Ruleset) IsLossless(tag int) bool { return tag >= 1 && tag <= rs.maxTag }

// HostFacing reports whether port num on sw attaches a host.
func (rs *Ruleset) HostFacing(sw topology.NodeID, num int) bool {
	p := rs.g.PortOn(sw, num)
	return p >= 0 && int(p) < len(rs.isHostP) && rs.isHostP[p]
}

// Add installs a rule, returning the previously installed NewTag and true
// if the key already existed with a different rewrite (the caller decides
// the resolution; Add keeps the new value).
func (rs *Ruleset) Add(r Rule) (old int, conflicted bool) {
	rs.gen++
	rs.sorted.Store(nil)
	k := packRuleKey(r.Switch, r.Tag, r.In, r.Out)
	if prev, ok := rs.rules[k]; ok && prev != r.NewTag {
		rs.rules[k] = r.NewTag
		if r.NewTag > rs.maxTag {
			rs.maxTag = r.NewTag
		}
		return prev, true
	}
	rs.rules[k] = r.NewTag
	if r.NewTag > rs.maxTag {
		rs.maxTag = r.NewTag
	}
	return 0, false
}

// Lookup returns the exact-match rewrite for (sw, tag, in, out).
func (rs *Ruleset) Lookup(sw topology.NodeID, tag, in, out int) (int, bool) {
	k, ok := packRuleKeyOK(sw, tag, in, out)
	if !ok {
		return 0, false
	}
	v, ok := rs.rules[k]
	return v, ok
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
func (rs *Ruleset) Len() int { return len(rs.rules) }

// sortedKeys returns the installed keys in ascending order. The slice is
// the memo itself: callers must not modify it.
func (rs *Ruleset) sortedKeys() []ruleKey {
	if p := rs.sorted.Load(); p != nil {
		return *p
	}
	keys := make([]ruleKey, 0, len(rs.rules))
	for k := range rs.rules {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	rs.sorted.Store(&keys)
	return keys
}

// ruleOf materializes the rule installed at k.
func (rs *Ruleset) ruleOf(k ruleKey) Rule {
	sw, tag, in, out := k.unpack()
	return Rule{Switch: sw, Tag: tag, In: in, Out: out, NewTag: rs.rules[k]}
}

// rulesOf materializes the rules of a run of sorted keys.
func (rs *Ruleset) rulesOf(keys []ruleKey) []Rule {
	out := make([]Rule, len(keys))
	for i, k := range keys {
		out[i] = rs.ruleOf(k)
	}
	return out
}

// ClassifyID is Classify, additionally reporting which exact TCAM entry
// decided (its dense ID — the rule's index in Rules() order); id -1
// means a §7 default action decided instead (injection, delivery, or
// the lossy safeguard).
func (rs *Ruleset) ClassifyID(sw topology.NodeID, tag, in, out int) (newTag, id int) {
	if !rs.IsLossless(tag) {
		return LossyTag, -1
	}
	if k, ok := packRuleKeyOK(sw, tag, in, out); ok {
		if nt, hit := rs.rules[k]; hit {
			id, _ := slices.BinarySearch(rs.sortedKeys(), k)
			return nt, id
		}
	}
	if rs.HostFacing(sw, in) {
		return tag, -1
	}
	if rs.HostFacing(sw, out) {
		return tag, -1
	}
	return LossyTag, -1
}

// RuleByID resolves a dense rule ID back to its rule.
func (rs *Ruleset) RuleByID(id int) (Rule, bool) {
	keys := rs.sortedKeys()
	if id < 0 || id >= len(keys) {
		return Rule{}, false
	}
	return rs.ruleOf(keys[id]), true
}

// Rules returns all rules in deterministic order: ascending (switch,
// tag, in, out).
func (rs *Ruleset) Rules() []Rule { return rs.rulesOf(rs.sortedKeys()) }

// RulesAt returns the rules installed at one switch, in the same order.
func (rs *Ruleset) RulesAt(sw topology.NodeID) []Rule {
	keys := rs.sortedKeys()
	lo, _ := slices.BinarySearch(keys, ruleKey(sw)<<40)
	hi := lo
	for hi < len(keys) && keys[hi]>>40 == ruleKey(sw) {
		hi++
	}
	if lo == hi {
		return nil // also every sw no key can carry: the run test never matches
	}
	return rs.rulesOf(keys[lo:hi])
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
// but the smaller one leaves more headroom for RepairReplay to patch the
// losing family's continuation without minting a new tag. Conflicts on
// host-facing egress are benign — the tag is leaving the fabric and
// pauses nothing downstream — so only fabric conflicts are reported,
// sorted by (switch, tag, in, out, losing rewrite).
func DeriveRules(tg *TaggedGraph) (*Ruleset, []Conflict) {
	return deriveRulesN(tg, 0)
}

// deriveRulesN is DeriveRules with an explicit worker count. Workers walk
// disjoint dense vertex ranges into shard-local rule maps; the fold keeps
// the minimum rewrite per key, so the result is independent of both edge
// iteration order and worker count.
func deriveRulesN(tg *TaggedGraph, par int) (*Ruleset, []Conflict) {
	defer telemetry.Default.StartSpan("synth/rules").End()
	type loser struct {
		k  ruleKey
		nt int
	}
	g := tg.g
	// derive fills rules (keeping the minimum rewrite per key) and losers
	// (every rewrite observed losing to a smaller one) from the out-edges
	// of the dense vertex range [lo, hi).
	derive := func(lo, hi int, rules map[ruleKey]int, losers *[]loser) {
		for id := lo; id < hi; id++ {
			from := tg.nodes[id]
			fromPort := g.Port(from.Port)
			sw := fromPort.Node
			if g.Node(sw).Kind == topology.KindHost {
				continue // hosts stamp, they do not rewrite
			}
			for i := tg.succHead[id]; i != 0; i = tg.succPool[i-1].next {
				to := tg.nodes[tg.succPool[i-1].node]
				toPort := g.Port(to.Port)
				out := g.PortToPeer(sw, toPort.Node)
				if out < 0 {
					panic(fmt.Sprintf("core: tagged edge between non-adjacent %s and %s",
						g.Node(sw).Name, g.Node(toPort.Node).Name))
				}
				k := packRuleKey(sw, from.Tag, fromPort.Num, out)
				prev, ok := rules[k]
				switch {
				case !ok:
					rules[k] = to.Tag
				case to.Tag < prev:
					rules[k] = to.Tag
					*losers = append(*losers, loser{k, prev})
				case to.Tag > prev:
					*losers = append(*losers, loser{k, to.Tag})
				}
			}
		}
	}

	rs := NewRuleset(g, tg.maxTag)
	var losers []loser
	w := sweep.Workers(par, len(tg.nodes))
	if w <= 1 {
		derive(0, len(tg.nodes), rs.rules, &losers)
	} else {
		shards := sweep.Shards(len(tg.nodes), w)
		maps := make([]map[ruleKey]int, len(shards))
		shardLosers := make([][]loser, len(shards))
		sweep.ForEachShard(len(tg.nodes), w, func(s sweep.Shard) {
			maps[s.Index] = make(map[ruleKey]int)
			derive(s.Lo, s.Hi, maps[s.Index], &shardLosers[s.Index])
		})
		for i, m := range maps {
			for k, nt := range m {
				prev, ok := rs.rules[k]
				switch {
				case !ok:
					rs.rules[k] = nt
				case nt < prev:
					rs.rules[k] = nt
					losers = append(losers, loser{k, prev})
				case nt > prev:
					losers = append(losers, loser{k, nt})
				}
			}
			losers = append(losers, shardLosers[i]...)
		}
	}

	// Report fabric conflicts: one entry per distinct losing rewrite,
	// against the final (minimum) winner, in canonical order.
	var conflicts []Conflict
	if len(losers) > 0 {
		seen := make(map[loser]bool, len(losers))
		for _, l := range losers {
			if seen[l] {
				continue
			}
			seen[l] = true
			sw, tag, in, out := l.k.unpack()
			peer := g.Port(g.PortOn(sw, out)).Peer
			if peer != topology.InvalidNode && g.Node(peer).Kind == topology.KindHost {
				continue // benign: host-facing egress
			}
			conflicts = append(conflicts, Conflict{
				Rule:        Rule{Switch: sw, Tag: tag, In: in, Out: out, NewTag: rs.rules[l.k]},
				LoserNewTag: l.nt,
			})
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
