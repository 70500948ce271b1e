package tcam

import (
	"repro/internal/core"
	"repro/internal/topology"
)

// Compiled is a ruleset's compressed TCAM image: each switch's entries in
// the order its ASIC walks them. Tables compiles the image into the
// decisions a switch executes, so correctness tooling can compare them
// with the tables of the uncompressed ruleset cell for cell — any
// difference means compression lost information.
type Compiled struct {
	rules    *core.Ruleset
	bySwitch map[topology.NodeID][]Entry
}

// NewCompiled compresses rs (with the given worker count; 0 =
// GOMAXPROCS) and returns the image.
func NewCompiled(rs *core.Ruleset, par int) *Compiled {
	c := &Compiled{rules: rs, bySwitch: make(map[topology.NodeID][]Entry)}
	for _, e := range CompressN(rs.Rules(), par) {
		c.bySwitch[e.Switch] = append(c.bySwitch[e.Switch], e)
	}
	return c
}

// Entries returns one switch's compressed entries in TCAM order.
func (c *Compiled) Entries(sw topology.NodeID) []Entry { return c.bySwitch[sw] }

// TotalEntries returns the fabric-wide compressed entry count.
func (c *Compiled) TotalEntries() int {
	t := 0
	for _, es := range c.bySwitch {
		t += len(es)
	}
	return t
}

// Tables compiles every forwarding node's entries into its table, indexed
// by NodeID like Compile's (nil at plain hosts).
func (c *Compiled) Tables() []*Table {
	g := c.rules.Graph()
	tables := make([]*Table, g.NumNodes())
	for id := range tables {
		if sw := topology.NodeID(id); g.Node(sw).Kind.Forwards() {
			tables[id] = CompileEntries(c.rules, sw, c.bySwitch[sw])
		}
	}
	return tables
}
