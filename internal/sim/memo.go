package sim

import "repro/internal/topology"

// The packet path asks two questions per hop — which ports lead to the
// destination, and what the Tagger pipeline rewrites the tag to — and
// both authorities answer from a hash map (routing.Tables, core.Ruleset).
// A run asks the same few questions millions of times, so the Network
// keeps dense, lazily filled copies of the answers and drops them when
// the authority's generation counter says an answer may have changed.
// New allocates the per-node row headers; a row itself exists only once
// its switch has seen traffic.

// noRoute is the memoized form of an empty NextHops result: non-nil, so
// a filled entry is told apart from an unfilled one.
var noRoute = []int{}

// fwdMemo caches Tables.NextHops, indexed [node][dst].
type fwdMemo struct {
	gen  uint64
	rows [][][]int // per node: nil until it forwards its first packet
}

// nextHops is n.tables.NextHops(id, dst) through the memo.
func (n *Network) nextHops(id, dst topology.NodeID) []int {
	m := &n.fwd
	if g := n.tables.Generation(); g != m.gen {
		for _, row := range m.rows {
			clear(row)
		}
		m.gen = g
	}
	row := m.rows[id]
	if row == nil {
		row = make([][]int, len(n.nodes))
		m.rows[id] = row
	}
	hops := row[dst]
	if hops == nil {
		if hops = n.tables.NextHops(id, dst); len(hops) == 0 {
			hops = noRoute
		}
		row[dst] = hops
	}
	return hops
}

// classEntry is one memoized pipeline decision. idp is 0 while unfilled,
// otherwise 2 + the deciding rule's dense ID (so 1 is "a §7 default
// decided"). IDs are resolved only while a flight recorder is armed,
// their one consumer; otherwise every filled entry says 1.
type classEntry struct {
	idp    int32
	newTag int32
}

// classMemo caches Ruleset.Classify / ClassifyID: one flat table per
// switch, indexed [tag-1][in][out] over the lossless tags and the
// switch's own ports.
type classMemo struct {
	gen  uint64
	rows [][]classEntry // per node: nil until it classifies its first packet
}

// drop forgets every memoized decision. Rows are freed, not zeroed: the
// ruleset's tag range, which sizes them, may have changed.
func (m *classMemo) drop() { clear(m.rows) }

// classify is n.rules.ClassifyID(sw, tag, in, out) through the memo —
// with id -1 throughout while no flight recorder is armed, when it is
// Classify. Arguments outside the table (a tag that is not lossless, a
// port the switch does not have) go to the ruleset directly.
func (n *Network) classify(sw topology.NodeID, tag, in, out int) (newTag, id int) {
	m := &n.cls
	if g := n.rules.Generation(); g != m.gen {
		m.drop()
		m.gen = g
	}
	np, maxTag := len(n.nodes[sw].ports), n.rules.MaxTag()
	if tag < 1 || tag > maxTag || uint(in) >= uint(np) || uint(out) >= uint(np) {
		return n.classifyUncached(sw, tag, in, out)
	}
	row := m.rows[sw]
	if row == nil {
		row = make([]classEntry, maxTag*np*np)
		m.rows[sw] = row
	}
	e := &row[((tag-1)*np+in)*np+out]
	if e.idp == 0 {
		newTag, id = n.classifyUncached(sw, tag, in, out)
		e.idp, e.newTag = int32(id+2), int32(newTag)
	}
	return int(e.newTag), int(e.idp) - 2
}

func (n *Network) classifyUncached(sw topology.NodeID, tag, in, out int) (newTag, id int) {
	if n.flightrec != nil {
		return n.rules.ClassifyID(sw, tag, in, out)
	}
	return n.rules.Classify(sw, tag, in, out), -1
}
