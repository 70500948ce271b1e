package tcam

import (
	"repro/internal/core"
	"repro/internal/topology"
)

// Compiled is the three-step §7 pipeline executed over the compressed
// TCAM image instead of the abstract exact-match ruleset: step 2's
// rewrite decision comes from first-hit Lookup over each switch's
// compressed entries, exactly like a real ASIC walks its TCAM list. The
// abstract ruleset is retained only for the deployment boundary defaults
// (which ports face hosts, how many lossless tags exist) — the same
// information a switch config carries outside its TCAM.
//
// Compiled exists so correctness tooling can differentially compare the
// compressed and uncompressed tables: for every reachable (switch, tag,
// in, out) the decisions of Pipeline (uncompressed) and Compiled
// (compressed) must be identical, or compression lost information.
type Compiled struct {
	rules    *core.Ruleset
	bySwitch map[topology.NodeID][]Entry
	// LegacyEgressByOldTag mirrors Pipeline's §7 ablation flag: egress
	// queue chosen by the ingress priority instead of the rewritten tag.
	LegacyEgressByOldTag bool
}

// NewCompiled compresses rs (with the given worker count; 0 =
// GOMAXPROCS) and returns the compiled pipeline over the image.
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

func (c *Compiled) queueOf(tag int) (int, QueueKind) {
	if c.rules.IsLossless(tag) {
		return tag, Lossless
	}
	return 0, Lossy
}

// Process classifies a packet at switch sw arriving on ingress port in
// with the given tag, destined for egress port out — the compressed-image
// twin of Pipeline.Process.
func (c *Compiled) Process(sw topology.NodeID, tag, in, out int) QueueDecision {
	var d QueueDecision
	var inKind QueueKind
	d.IngressQueue, inKind = c.queueOf(tag)

	newTag, hit := Lookup(c.bySwitch[sw], sw, tag, in, out)
	switch {
	case hit:
	case !c.rules.IsLossless(tag):
		newTag = core.LossyTag // once lossy, always lossy
	case c.rules.HostFacing(sw, in), c.rules.HostFacing(sw, out):
		newTag = tag // injection / delivery defaults
	default:
		newTag = core.LossyTag // the safeguard entry at the end of the list
	}
	d.NewTag = newTag

	if c.LegacyEgressByOldTag {
		d.EgressQueue = d.IngressQueue
		d.Kind = inKind
		if d.NewTag == core.LossyTag {
			d.EgressQueue, d.Kind = c.queueOf(d.NewTag)
		}
		return d
	}
	d.EgressQueue, d.Kind = c.queueOf(d.NewTag)
	return d
}
