package tcam

import (
	"repro/internal/core"
	"repro/internal/topology"
)

// Cell is one step-2 decision of the §7 pipeline: the tag the packet
// leaves with, and the ID of the exact entry that decided it (-1 when
// one of §4's defaults did).
type Cell struct {
	NewTag int32
	Rule   int32
}

// Table is one switch's step 2 compiled to a dense array, indexed
// [tag-1][in][out] over the lossless tags and the switch's own ports, so
// a decision is one index. It is immutable once compiled, and it is the
// one place the §4 defaults are written down:
//
//   - a tag that is not lossless stays lossy whatever matches (once
//     lossy, always lossy);
//   - otherwise an exact entry decides, and without one, ingress from or
//     egress to a host-facing port keeps the tag (injection trusts the
//     NIC stamp; delivery leaves the fabric);
//   - anything else takes the lossy safeguard at the end of the list.
//
// Compile builds the tables from a ruleset's exact rules, CompileEntries
// from a switch's compressed TCAM entries; the two must agree cell for
// cell (internal/check).
type Table struct {
	maxTag, ports int
	cells         []Cell
}

// newTable returns sw's table holding only the injection, delivery and
// safeguard defaults; the exact entries are set over them. rs supplies
// what a switch config holds outside its TCAM: the lossless tag range,
// the port count and which ports face hosts.
func newTable(rs *core.Ruleset, sw topology.NodeID) *Table {
	np := rs.Graph().PortCount(sw)
	t := &Table{maxTag: rs.MaxTag(), ports: np, cells: make([]Cell, rs.MaxTag()*np*np)}
	host := make([]bool, np)
	for p := range host {
		host[p] = rs.HostFacing(sw, p)
	}
	i := 0
	for tag := 1; tag <= t.maxTag; tag++ {
		for in := 0; in < np; in++ {
			for out := 0; out < np; out++ {
				t.cells[i] = Cell{NewTag: core.LossyTag, Rule: -1}
				if host[in] || host[out] {
					t.cells[i].NewTag = int32(tag)
				}
				i++
			}
		}
	}
	return t
}

// set makes exact entry id decide (tag, in, out), over whatever the cell
// held. A match outside the table decides nothing: a tag that is not
// lossless is lossy whatever matches.
func (t *Table) set(tag, in, out, newTag, id int) {
	if tag < 1 || tag > t.maxTag || uint(in) >= uint(t.ports) || uint(out) >= uint(t.ports) {
		return
	}
	t.cells[(tag-1)*t.ports*t.ports+in*t.ports+out] = Cell{NewTag: int32(newTag), Rule: int32(id)}
}

// Compile builds the table of every forwarding node (switches and relay
// hosts) from rs's exact rules; tables is indexed by NodeID, nil at plain
// hosts. A cell's rule ID indexes rules, which is rs.Rules(), so IDs are
// the rules' dense IDs.
func Compile(rs *core.Ruleset) (tables []*Table, rules []core.Rule) {
	g := rs.Graph()
	rules = rs.Rules()
	tables = make([]*Table, g.NumNodes())
	lo := 0
	for id := range tables {
		sw := topology.NodeID(id)
		if !g.Node(sw).Kind.Forwards() {
			continue
		}
		t := newTable(rs, sw)
		for lo < len(rules) && rules[lo].Switch < sw {
			lo++
		}
		for ; lo < len(rules) && rules[lo].Switch == sw; lo++ {
			r := &rules[lo]
			t.set(r.Tag, r.In, r.Out, r.NewTag, lo)
		}
		tables[id] = t
	}
	return tables, rules
}

// CompileEntries builds switch sw's table from compressed entries as its
// TCAM executes them: entries of other switches are skipped, the first
// entry that matches decides, and a cell's rule ID is that entry's index
// in entries. rs supplies only what a switch config holds outside its
// TCAM: the lossless tag range and which ports face hosts.
func CompileEntries(rs *core.Ruleset, sw topology.NodeID, entries []Entry) *Table {
	t := newTable(rs, sw)
	var ins, outs []int
	for i := len(entries) - 1; i >= 0; i-- { // the first hit is set last
		e := &entries[i]
		if e.Switch != sw {
			continue
		}
		ins, outs = e.InPorts.appendPorts(ins[:0]), e.OutPorts.appendPorts(outs[:0])
		for _, in := range ins {
			for _, out := range outs {
				t.set(e.Tag, in, out, e.NewTag, i)
			}
		}
	}
	return t
}

// Decide is step 2 for a packet carrying tag that arrived on port in and
// leaves on port out. A tag that is not lossless stays lossy whatever
// the ports; with a lossless tag, a port the switch does not have panics.
func (t *Table) Decide(tag, in, out int) Cell {
	if tag < 1 || tag > t.maxTag {
		return Cell{NewTag: core.LossyTag, Rule: -1}
	}
	if uint(in) >= uint(t.ports) || uint(out) >= uint(t.ports) {
		panic("tcam: port outside the switch") // not another cell
	}
	return t.cells[(tag-1)*t.ports*t.ports+in*t.ports+out]
}
