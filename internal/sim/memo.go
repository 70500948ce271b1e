package sim

import "repro/internal/topology"

// The packet path asks two questions per hop — which ports lead to the
// destination, and what the Tagger pipeline rewrites the tag to. The
// second is answered by the switch's compiled tcam.Table, one index. The
// first comes from routing.Tables, a hash map that scenarios may
// override mid-run, so the Network keeps a dense, lazily filled copy of
// its answers and drops it when the tables' generation counter says an
// answer may have changed. New allocates the per-node row headers; a row
// itself exists only once its switch has forwarded a packet.

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
