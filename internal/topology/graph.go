// Package topology models data center network topologies as graphs of
// switches and hosts connected by point-to-point links.
//
// The model is deliberately close to the switch abstraction used by the
// Tagger paper (Hu et al., CoNEXT 2017): every node has numbered ports,
// every port is either free or attached to exactly one link, and links can
// be failed and restored to emulate the network dynamics of §3.2 of the
// paper. Builders are provided for the topologies the paper evaluates:
// Clos (leaf-spine and three-layer), fat-tree, BCube and Jellyfish.
package topology

import (
	"fmt"
	"sort"
)

// NodeID identifies a node (switch or host) within a Graph.
type NodeID int32

// InvalidNode is the zero-value sentinel for "no node".
const InvalidNode NodeID = -1

// LinkID identifies a link within a Graph.
type LinkID int32

// InvalidLink is the sentinel for "no link".
const InvalidLink LinkID = -1

// PortID globally identifies an ingress/egress port as (node, port index).
// It is the unit the Tagger tagged-graph is built over: the paper's
// notation "A_i" (switch A's i-th port) maps to one PortID.
type PortID int32

// InvalidPort is the sentinel for "no port".
const InvalidPort PortID = -1

// Kind classifies a node. Layered kinds (ToR/Leaf/Spine/Core/Agg/Edge) are
// used by the Clos and fat-tree builders; generic switches (e.g. Jellyfish)
// use KindSwitch.
type Kind uint8

// Node kinds.
const (
	KindHost Kind = iota
	KindToR
	KindLeaf
	KindSpine
	KindEdge
	KindAgg
	KindCore
	KindSwitch
	// KindRelayHost is a server that also forwards packets, as in
	// server-centric topologies like BCube. It is not a switch (it
	// originates and sinks traffic) but routing may transit it.
	KindRelayHost
)

// String returns a short human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindHost:
		return "host"
	case KindToR:
		return "tor"
	case KindLeaf:
		return "leaf"
	case KindSpine:
		return "spine"
	case KindEdge:
		return "edge"
	case KindAgg:
		return "agg"
	case KindCore:
		return "core"
	case KindSwitch:
		return "switch"
	case KindRelayHost:
		return "relayhost"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// IsSwitch reports whether the kind denotes a dedicated switching element.
func (k Kind) IsSwitch() bool { return k != KindHost && k != KindRelayHost }

// Forwards reports whether the kind forwards transit packets: switches
// always, relay hosts (BCube servers) too, plain hosts never.
func (k Kind) Forwards() bool { return k != KindHost }

// Port is one attachment point on a node.
type Port struct {
	Node NodeID // owning node
	Num  int    // port number on the owning node, 0-based
	Peer NodeID // node on the other end, InvalidNode if unattached
	Link LinkID // attached link, InvalidLink if unattached
}

// Node is a switch or host.
type Node struct {
	ID    NodeID
	Name  string
	Kind  Kind
	Layer int // 0 = host, 1 = ToR/edge, 2 = leaf/agg, 3 = spine/core; -1 if unlayered
	Ports []PortID
}

// Link is a bidirectional point-to-point connection between two ports.
type Link struct {
	ID     LinkID
	A, B   NodeID
	APort  int // port number on A
	BPort  int // port number on B
	Failed bool
}

// Other returns the endpoint of l that is not n.
func (l *Link) Other(n NodeID) NodeID {
	if l.A == n {
		return l.B
	}
	return l.A
}

// Graph is a mutable network topology.
//
// The zero value is an empty graph ready for use, but topologies are
// normally produced by one of the builders (NewClos, NewFatTree, NewBCube,
// NewJellyfish) or assembled via AddNode/Connect.
type Graph struct {
	nodes  []Node
	links  []Link
	ports  []Port
	byName map[string]NodeID
	// peerPort maps a (node, peer) pair to the lowest-numbered port on
	// node that faces peer, which is node's end of the pair's first
	// link. It makes PortToPeer and LinkBetween O(1), and because both
	// sides index the same link, the far end of one side's port is the
	// other side's (Validate checks it; FarEnd relies on it).
	peerPort map[uint64]PortID
	// far is, per port, the port at the other end of its link
	// (InvalidPort while unattached): FarEnd's one read, on the per-hop
	// path of replay and rule derivation.
	far []PortID
	// gen counts wiring changes (AddNode, Connect). Link health changes
	// (FailLink, RestoreLink) deliberately do not bump it: health is not
	// wiring, and consumers that memoize wiring-derived state (the
	// synthesis cache's canonical form) stay valid across flaps.
	gen uint64
}

// Gen returns the wiring generation: a counter bumped by every AddNode
// and Connect, but not by FailLink/RestoreLink. Two calls returning the
// same value bracket a window in which the graph's nodes, ports and
// links were unchanged (only link health may have moved).
func (g *Graph) Gen() uint64 { return g.gen }

// peerKey packs an ordered (node, peer) pair for the adjacency index.
func peerKey(n, peer NodeID) uint64 {
	return uint64(uint32(n))<<32 | uint64(uint32(peer))
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{byName: make(map[string]NodeID)}
}

// AddNode adds a node with the given name, kind and layer and returns its ID.
// Names must be unique; AddNode panics on duplicates because topology
// construction is programmatic and a duplicate is always a builder bug.
func (g *Graph) AddNode(name string, kind Kind, layer int) NodeID {
	if g.byName == nil {
		g.byName = make(map[string]NodeID)
	}
	if _, dup := g.byName[name]; dup {
		panic(fmt.Sprintf("topology: duplicate node name %q", name))
	}
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Name: name, Kind: kind, Layer: layer})
	g.byName[name] = id
	g.gen++
	return id
}

// addPort appends a fresh unattached port to node n and returns its PortID.
func (g *Graph) addPort(n NodeID) PortID {
	pid := PortID(len(g.ports))
	num := len(g.nodes[n].Ports)
	g.ports = append(g.ports, Port{Node: n, Num: num, Peer: InvalidNode, Link: InvalidLink})
	g.far = append(g.far, InvalidPort)
	g.nodes[n].Ports = append(g.nodes[n].Ports, pid)
	return pid
}

// Connect creates a link between nodes a and b, allocating the next free
// port number on each side, and returns the link ID. Self-links are
// rejected; parallel links are allowed (Jellyfish construction can
// transiently want them, and some testbeds genuinely have them).
func (g *Graph) Connect(a, b NodeID) LinkID {
	if a == b {
		panic(fmt.Sprintf("topology: self-link on node %d", a))
	}
	pa := g.addPort(a)
	pb := g.addPort(b)
	lid := LinkID(len(g.links))
	g.links = append(g.links, Link{
		ID: lid, A: a, B: b,
		APort: g.ports[pa].Num, BPort: g.ports[pb].Num,
	})
	g.ports[pa].Peer = b
	g.ports[pa].Link = lid
	g.ports[pb].Peer = a
	g.ports[pb].Link = lid
	g.far[pa], g.far[pb] = pb, pa
	if g.peerPort == nil {
		g.peerPort = make(map[uint64]PortID)
	}
	// Ports are allocated in ascending order, so only the first link
	// between a pair enters the index: parallel links keep returning the
	// lowest-numbered port, as the linear scans did.
	if _, dup := g.peerPort[peerKey(a, b)]; !dup {
		g.peerPort[peerKey(a, b)] = pa
	}
	if _, dup := g.peerPort[peerKey(b, a)]; !dup {
		g.peerPort[peerKey(b, a)] = pb
	}
	g.gen++
	return lid
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumLinks returns the number of links (failed links included).
func (g *Graph) NumLinks() int { return len(g.links) }

// NumPorts returns the total number of ports across all nodes.
func (g *Graph) NumPorts() int { return len(g.ports) }

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) *Node { return &g.nodes[id] }

// Link returns the link with the given ID.
func (g *Graph) Link(id LinkID) *Link { return &g.links[id] }

// Port returns the port with the given global port ID.
func (g *Graph) Port(id PortID) *Port { return &g.ports[id] }

// Lookup returns the node with the given name, or (InvalidNode, false).
func (g *Graph) Lookup(name string) (NodeID, bool) {
	id, ok := g.byName[name]
	if !ok {
		return InvalidNode, false
	}
	return id, true
}

// MustLookup returns the node with the given name and panics if absent.
// It is intended for scenario builders where the name set is fixed.
func (g *Graph) MustLookup(name string) NodeID {
	id, ok := g.byName[name]
	if !ok {
		panic(fmt.Sprintf("topology: no node named %q", name))
	}
	return id
}

// PortOn returns the global PortID for port num of node n.
func (g *Graph) PortOn(n NodeID, num int) PortID {
	return g.nodes[n].Ports[num]
}

// PortCount returns the number of ports on node n.
func (g *Graph) PortCount(n NodeID) int { return len(g.nodes[n].Ports) }

// PortToPeer returns the port number on node n that faces peer, or -1 if
// the nodes are not adjacent (failed links still count as adjacency for
// port lookup; use LinkBetween to check health).
func (g *Graph) PortToPeer(n, peer NodeID) int {
	if pid, ok := g.peerPort[peerKey(n, peer)]; ok {
		return g.ports[pid].Num
	}
	return -1
}

// FarEnd returns the port at the other end of pid's link, failed or
// not, or InvalidPort when pid is unattached. For the port PortToPeer(b,
// a) names on b it is PortToPeer(a, b)'s port on a: one array read, no
// pair lookup.
func (g *Graph) FarEnd(pid PortID) PortID { return g.far[pid] }

// LinkBetween returns the link connecting a and b, or nil if none exists.
// If multiple parallel links exist, the lowest-numbered one is returned.
func (g *Graph) LinkBetween(a, b NodeID) *Link {
	if pid, ok := g.peerPort[peerKey(a, b)]; ok {
		if l := g.ports[pid].Link; l != InvalidLink {
			return &g.links[l]
		}
	}
	return nil
}

// Neighbors appends to dst the IDs of all nodes reachable from n over
// healthy (non-failed) links and returns the extended slice. The result is
// in ascending port order; a peer reachable over several parallel links
// appears once per link.
func (g *Graph) Neighbors(n NodeID, dst []NodeID) []NodeID {
	for _, pid := range g.nodes[n].Ports {
		p := &g.ports[pid]
		if p.Link == InvalidLink || g.links[p.Link].Failed {
			continue
		}
		dst = append(dst, p.Peer)
	}
	return dst
}

// HealthyPorts appends to dst the port numbers of node n whose links are
// healthy, and returns the extended slice.
func (g *Graph) HealthyPorts(n NodeID, dst []int) []int {
	for _, pid := range g.nodes[n].Ports {
		p := &g.ports[pid]
		if p.Link == InvalidLink || g.links[p.Link].Failed {
			continue
		}
		dst = append(dst, p.Num)
	}
	return dst
}

// FailLink marks the link between a and b as failed. It returns false if
// the nodes are not adjacent.
func (g *Graph) FailLink(a, b NodeID) bool {
	l := g.LinkBetween(a, b)
	if l == nil {
		return false
	}
	l.Failed = true
	return true
}

// RestoreLink clears the failed flag on the link between a and b. It
// returns false if the nodes are not adjacent.
func (g *Graph) RestoreLink(a, b NodeID) bool {
	l := g.LinkBetween(a, b)
	if l == nil {
		return false
	}
	l.Failed = false
	return true
}

// FailedLinks returns the IDs of all currently failed links.
func (g *Graph) FailedLinks() []LinkID {
	var out []LinkID
	for i := range g.links {
		if g.links[i].Failed {
			out = append(out, g.links[i].ID)
		}
	}
	return out
}

// Nodes returns all node IDs, hosts and switches alike, in ID order.
func (g *Graph) Nodes() []NodeID {
	out := make([]NodeID, len(g.nodes))
	for i := range g.nodes {
		out[i] = NodeID(i)
	}
	return out
}

// Switches returns the IDs of all switch nodes in ID order.
func (g *Graph) Switches() []NodeID {
	var out []NodeID
	for i := range g.nodes {
		if g.nodes[i].Kind.IsSwitch() {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// SwitchNames returns the names of all switch nodes in ID order — the
// roster an agent fleet or a churn generator addresses switches by.
func (g *Graph) SwitchNames() []string {
	var out []string
	for i := range g.nodes {
		if g.nodes[i].Kind.IsSwitch() {
			out = append(out, g.nodes[i].Name)
		}
	}
	return out
}

// SwitchLinks returns the switch-to-switch links as name pairs in link
// order — the churn generator's link-flap candidates. Host attachment
// links are excluded: no ELP path traverses them, so flapping them is
// pure no-op noise.
func (g *Graph) SwitchLinks() [][2]string {
	var out [][2]string
	for i := range g.links {
		a, b := &g.nodes[g.links[i].A], &g.nodes[g.links[i].B]
		if a.Kind.IsSwitch() && b.Kind.IsSwitch() {
			out = append(out, [2]string{a.Name, b.Name})
		}
	}
	return out
}

// Hosts returns the IDs of all host nodes in ID order.
func (g *Graph) Hosts() []NodeID {
	var out []NodeID
	for i := range g.nodes {
		if g.nodes[i].Kind == KindHost {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// NodesOfKind returns the IDs of all nodes with the given kind, in ID order.
func (g *Graph) NodesOfKind(k Kind) []NodeID {
	var out []NodeID
	for i := range g.nodes {
		if g.nodes[i].Kind == k {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// HostToR returns the switch a host attaches to. Hosts in all supported
// topologies are single-homed except BCube, where a host has several
// uplinks; for BCube the level-0 switch is returned. It panics if n is not
// a host.
func (g *Graph) HostToR(n NodeID) NodeID {
	if g.nodes[n].Kind != KindHost {
		panic(fmt.Sprintf("topology: HostToR on non-host %s", g.nodes[n].Name))
	}
	for _, pid := range g.nodes[n].Ports {
		p := &g.ports[pid]
		if p.Peer != InvalidNode {
			return p.Peer
		}
	}
	return InvalidNode
}

// Validate performs structural consistency checks and returns a non-nil
// error describing the first violation found: dangling ports referencing
// missing links, asymmetric link endpoints, port-number gaps, a
// PortToPeer that is not the lowest-numbered port facing its peer, or an
// adjacent pair whose PortToPeer ports in the two directions are not the
// two ends of one link.
func (g *Graph) Validate() error {
	for i := range g.nodes {
		n := &g.nodes[i]
		for num, pid := range n.Ports {
			p := &g.ports[pid]
			if p.Node != n.ID {
				return fmt.Errorf("node %s port %d: owner mismatch (%d)", n.Name, num, p.Node)
			}
			if p.Num != num {
				return fmt.Errorf("node %s port %d: numbered %d", n.Name, num, p.Num)
			}
			if p.Link == InvalidLink {
				if g.far[pid] != InvalidPort {
					return fmt.Errorf("node %s port %d: unattached but has a far end", n.Name, num)
				}
				continue
			}
			l := &g.links[p.Link]
			if fp := g.far[pid]; fp < 0 || int(fp) >= len(g.ports) || fp == pid || g.ports[fp].Link != p.Link {
				return fmt.Errorf("node %s port %d: far end %d is not the other end of link %d", n.Name, num, fp, p.Link)
			}
			if l.A != n.ID && l.B != n.ID {
				return fmt.Errorf("node %s port %d: link %d does not reference node", n.Name, num, p.Link)
			}
			if p.Peer != l.Other(n.ID) {
				return fmt.Errorf("node %s port %d: peer mismatch", n.Name, num)
			}
			// PortToPeer must name the lowest-numbered port facing the
			// peer: no higher than this one, and facing the same node.
			if got := g.PortToPeer(n.ID, p.Peer); got < 0 || got > num || g.ports[n.Ports[got]].Peer != p.Peer {
				return fmt.Errorf("node %s port %d: PortToPeer toward %s is %d, not the lowest port facing it",
					n.Name, num, g.nodes[p.Peer].Name, got)
			}
		}
	}
	for i := range g.links {
		l := &g.links[i]
		ab, ba := g.PortToPeer(l.A, l.B), g.PortToPeer(l.B, l.A)
		if ab < 0 {
			return fmt.Errorf("link %d: no port from %d to %d", l.ID, l.A, l.B)
		}
		if ba < 0 {
			return fmt.Errorf("link %d: no port from %d to %d", l.ID, l.B, l.A)
		}
		pa, pb := g.nodes[l.A].Ports[ab], g.nodes[l.B].Ports[ba]
		if g.ports[pa].Link != g.ports[pb].Link {
			return fmt.Errorf("link %d: %s port %d and %s port %d face each other on different links",
				l.ID, g.nodes[l.A].Name, ab, g.nodes[l.B].Name, ba)
		}
	}
	return nil
}

// Degree returns the number of healthy links attached to n.
func (g *Graph) Degree(n NodeID) int {
	d := 0
	for _, pid := range g.nodes[n].Ports {
		p := &g.ports[pid]
		if p.Link != InvalidLink && !g.links[p.Link].Failed {
			d++
		}
	}
	return d
}

// MaxPorts returns the largest port count of any switch, which bounds the
// width of TCAM port bitmaps.
func (g *Graph) MaxPorts() int {
	m := 0
	for i := range g.nodes {
		if !g.nodes[i].Kind.IsSwitch() {
			continue
		}
		if len(g.nodes[i].Ports) > m {
			m = len(g.nodes[i].Ports)
		}
	}
	return m
}

// SortedNames returns all node names sorted lexicographically. Intended
// for deterministic debug dumps.
func (g *Graph) SortedNames() []string {
	out := make([]string, 0, len(g.nodes))
	for i := range g.nodes {
		out = append(out, g.nodes[i].Name)
	}
	sort.Strings(out)
	return out
}
