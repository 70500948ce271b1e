// Package core implements the Tagger tagging system from "Tagger:
// Practical PFC Deadlock Prevention in Data Center Networks" (Hu et al.,
// CoNEXT 2017): the tagged graph G(V,E) over (ingress port, tag) pairs,
// Algorithm 1 (brute-force per-hop tagging), Algorithm 2 (greedy tag
// merging), the Clos-specific optimal scheme, match-action rule synthesis,
// and the deadlock-freedom verifier for the two requirements of §5.1.
package core

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/routing"
	"repro/internal/sweep"
	"repro/internal/topology"
)

// TagNode is a vertex of the tagged graph: the paper's "(A_i, x)" — switch
// A's ingress port i may receive lossless packets carrying tag x.
type TagNode struct {
	Port topology.PortID
	Tag  int
}

// TagEdge is a directed edge of the tagged graph: "(A_i, x) -> (B_j, y)" —
// switch A may forward a packet that arrived on A_i with tag x out toward
// B (arriving on B's port j) after rewriting its tag to y.
type TagEdge struct {
	From, To TagNode
}

// adjEntry is one cell of a pooled adjacency list: the dense ID of the
// neighbor plus the pool index (+1) of the next cell, 0 terminating.
type adjEntry struct {
	node int32
	next int32
}

// TaggedGraph is the paper's G(V, E).
//
// Internally every (port, tag) vertex is interned to a dense int32 ID via
// a flat port×tag table, and both adjacency directions live in two shared
// entry pools (per-vertex singly linked lists threaded through one slice).
// The layout makes vertex interning a single array access, adjacency
// traversal pointer-free of maps, and graph construction allocation-lean:
// building a graph costs O(1) allocations regardless of vertex count,
// which is what keeps Algorithm 1/2 fast on Table 5-sized inputs. The
// exported API is unchanged from the map-based implementation.
type TaggedGraph struct {
	g      *topology.Graph
	capTag int     // largest tag the intern table can hold
	tab    []int32 // (port*(capTag+1) + tag) -> dense ID + 1; 0 = absent
	nodes  []TagNode

	succHead []int32 // per dense ID: pool index + 1 of first successor
	predHead []int32
	succPool []adjEntry
	predPool []adjEntry

	numEdges int
	maxTag   int
}

// initialTagCap is the tag capacity graphs start with; it covers every
// merged and Clos graph in the paper so the table is rebuilt only for
// long brute-force chains.
const initialTagCap = 8

// NewTaggedGraph returns an empty tagged graph over the given topology.
func NewTaggedGraph(g *topology.Graph) *TaggedGraph {
	return &TaggedGraph{
		g:      g,
		capTag: initialTagCap,
		tab:    make([]int32, g.NumPorts()*(initialTagCap+1)),
	}
}

// growTag rebuilds the intern table so tags up to at least t fit.
func (tg *TaggedGraph) growTag(t int) {
	newCap := tg.capTag * 2
	if newCap < t {
		newCap = t
	}
	nt := make([]int32, tg.g.NumPorts()*(newCap+1))
	for p := 0; p < tg.g.NumPorts(); p++ {
		copy(nt[p*(newCap+1):p*(newCap+1)+tg.capTag+1], tg.tab[p*(tg.capTag+1):(p+1)*(tg.capTag+1)])
	}
	tg.tab, tg.capTag = nt, newCap
}

// intern returns the dense ID for n, creating the vertex if absent.
func (tg *TaggedGraph) intern(n TagNode) int32 {
	if n.Tag > tg.capTag {
		tg.growTag(n.Tag)
	}
	slot := int(n.Port)*(tg.capTag+1) + n.Tag
	if id := tg.tab[slot]; id != 0 {
		return id - 1
	}
	id := int32(len(tg.nodes))
	tg.tab[slot] = id + 1
	tg.nodes = append(tg.nodes, n)
	tg.succHead = append(tg.succHead, 0)
	tg.predHead = append(tg.predHead, 0)
	if n.Tag > tg.maxTag {
		tg.maxTag = n.Tag
	}
	return id
}

// AddNode inserts a (port, tag) vertex.
func (tg *TaggedGraph) AddNode(n TagNode) { tg.intern(n) }

// addEdgeIDs inserts the directed edge between two interned vertices,
// returning false when it already existed.
func (tg *TaggedGraph) addEdgeIDs(from, to int32) bool {
	for i := tg.succHead[from]; i != 0; i = tg.succPool[i-1].next {
		if tg.succPool[i-1].node == to {
			return false
		}
	}
	tg.succPool = append(tg.succPool, adjEntry{node: to, next: tg.succHead[from]})
	tg.succHead[from] = int32(len(tg.succPool))
	tg.predPool = append(tg.predPool, adjEntry{node: from, next: tg.predHead[to]})
	tg.predHead[to] = int32(len(tg.predPool))
	tg.numEdges++
	return true
}

// AddEdge inserts both endpoints and the directed edge between them.
func (tg *TaggedGraph) AddEdge(from, to TagNode) {
	tg.addEdgeIDs(tg.intern(from), tg.intern(to))
}

// NumNodes returns |V|.
func (tg *TaggedGraph) NumNodes() int { return len(tg.nodes) }

// NumEdges returns |E|.
func (tg *TaggedGraph) NumEdges() int { return tg.numEdges }

// Tags returns the sorted set of distinct tags in use. Its length is the
// number of lossless priorities the tagging system needs.
func (tg *TaggedGraph) Tags() []int {
	seen := make([]bool, tg.maxTag+1)
	for _, n := range tg.nodes {
		seen[n.Tag] = true
	}
	var out []int
	for t, ok := range seen {
		if ok {
			out = append(out, t)
		}
	}
	return out
}

// NumTags returns the number of distinct tags (lossless priorities used).
func (tg *TaggedGraph) NumTags() int { return len(tg.Tags()) }

// SwitchTags returns the sorted distinct tags appearing on the ingress
// ports of forwarding nodes (switches, and relay servers in
// server-centric topologies). This is the number of lossless queues the
// system needs: tags that appear only on plain host ingress (the final
// hop of host-level paths) consume no switch queue.
func (tg *TaggedGraph) SwitchTags() []int {
	seen := make([]bool, tg.maxTag+1)
	for _, n := range tg.nodes {
		owner := tg.g.Port(n.Port).Node
		if tg.g.Node(owner).Kind.Forwards() {
			seen[n.Tag] = true
		}
	}
	var out []int
	for t, ok := range seen {
		if ok {
			out = append(out, t)
		}
	}
	return out
}

// NumSwitchTags returns len(SwitchTags()).
func (tg *TaggedGraph) NumSwitchTags() int { return len(tg.SwitchTags()) }

// Nodes returns all vertices in a deterministic order.
func (tg *TaggedGraph) Nodes() []TagNode {
	out := make([]TagNode, len(tg.nodes))
	copy(out, tg.nodes)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tag != out[j].Tag {
			return out[i].Tag < out[j].Tag
		}
		return out[i].Port < out[j].Port
	})
	return out
}

// Edges returns all edges in a deterministic order.
func (tg *TaggedGraph) Edges() []TagEdge {
	out := make([]TagEdge, 0, tg.numEdges)
	for id := range tg.nodes {
		from := tg.nodes[id]
		for i := tg.succHead[id]; i != 0; i = tg.succPool[i-1].next {
			out = append(out, TagEdge{From: from, To: tg.nodes[tg.succPool[i-1].node]})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.From != b.From {
			if a.From.Tag != b.From.Tag {
				return a.From.Tag < b.From.Tag
			}
			return a.From.Port < b.From.Port
		}
		if a.To.Tag != b.To.Tag {
			return a.To.Tag < b.To.Tag
		}
		return a.To.Port < b.To.Port
	})
	return out
}

// mergeFrom copies every vertex and edge of other into tg. Vertices are
// visited in other's insertion order, so merging the same shard sequence
// always produces the same graph — the deterministic-merge step of the
// parallel builders.
func (tg *TaggedGraph) mergeFrom(other *TaggedGraph) {
	ids := make([]int32, len(other.nodes))
	for i, n := range other.nodes {
		ids[i] = tg.intern(n)
	}
	for id := range other.nodes {
		for i := other.succHead[id]; i != 0; i = other.succPool[i-1].next {
			tg.addEdgeIDs(ids[id], ids[other.succPool[i-1].node])
		}
	}
}

// NodeString renders a vertex using the paper's (A_i, x) notation.
func (tg *TaggedGraph) NodeString(n TagNode) string {
	p := tg.g.Port(n.Port)
	return fmt.Sprintf("(%s_%d,%d)", tg.g.Node(p.Node).Name, p.Num, n.Tag)
}

// Dump renders the tagged graph grouped by tag, in the style of the
// paper's Figure 5(b)/(c): each G_k's vertices in (Switch_port, tag)
// notation followed by the cross-tag edges.
func (tg *TaggedGraph) Dump(w io.Writer) {
	nodes := tg.Nodes()
	for _, k := range tg.Tags() {
		fmt.Fprintf(w, "G_%d:", k)
		for _, n := range nodes {
			if n.Tag == k {
				fmt.Fprintf(w, " %s", tg.NodeString(n))
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "edges:")
	for _, e := range tg.Edges() {
		arrow := "->"
		if e.From.Tag != e.To.Tag {
			arrow = "=>" // tag transition
		}
		fmt.Fprintf(w, "  %s %s %s\n", tg.NodeString(e.From), arrow, tg.NodeString(e.To))
	}
}

// ingressPortID returns the global port of node `to` that faces node
// `from`, panicking when the nodes are not adjacent: tagged graphs are
// built from validated paths, so non-adjacency is a programming error.
func ingressPortID(g *topology.Graph, from, to topology.NodeID) topology.PortID {
	num := g.PortToPeer(to, from)
	if num < 0 {
		panic(fmt.Sprintf("core: %s and %s are not adjacent",
			g.Node(from).Name, g.Node(to).Name))
	}
	return g.PortOn(to, num)
}

// appendHopPorts appends the ingress port of each hop of p to dst: entry
// i-1 is p[i]'s port facing p[i-1]. It resolves one path; newHopPorts
// resolves a whole ELP the same way.
func appendHopPorts(g *topology.Graph, p routing.Path, dst []topology.PortID) []topology.PortID {
	for i := 1; i < len(p); i++ {
		dst = append(dst, ingressPortID(g, p[i-1], p[i]))
	}
	return dst
}

// egressNum returns the port number a packet leaves on toward the node
// whose ingress port is next: the far end of next's link. For next =
// ingressPortID(g, a, b) it is PortToPeer(a, b), since Connect indexes a
// pair's first link on both sides.
func egressNum(g *topology.Graph, next topology.PortID) int {
	return g.Port(g.FarEnd(next)).Num
}

// hopPorts is an ELP in port space: the ingress ports of every hop of
// every path, laid end to end — path i's are ports[off[i]:off[i+1]], entry
// j-1 being p[j]'s port facing p[j-1]. Synthesis maps node pairs to ports
// here once per call; everything downstream reads the result.
type hopPorts struct {
	ports []topology.PortID
	off   []int
}

// newHopPorts resolves the ingress ports of every hop of paths, sharded
// over par workers (0 = GOMAXPROCS). Each shard remembers, per node, the
// hop into it that it resolved last: an ELP lists the paths of one
// source together, and those enter a node mostly from one neighbor (all
// of a BFS tree's paths do), so most hops repeat it and skip the pair
// lookup.
func newHopPorts(g *topology.Graph, paths []routing.Path, par int) hopPorts {
	h := hopPorts{off: make([]int, len(paths)+1)}
	for i, p := range paths {
		h.off[i+1] = h.off[i] + max(len(p)-1, 0)
	}
	h.ports = make([]topology.PortID, h.off[len(paths)])
	sweep.ForEachShard(len(paths), sweep.Workers(par, len(paths)), func(s sweep.Shard) {
		from := make([]topology.NodeID, g.NumNodes()) // from[v] -> v last entered by port at[v]
		at := make([]topology.PortID, g.NumNodes())
		for v := range from {
			from[v] = topology.InvalidNode
		}
		for i := s.Lo; i < s.Hi; i++ {
			p, dst := paths[i], h.ports[h.off[i]:h.off[i+1]]
			for j := 1; j < len(p); j++ {
				u, v := p[j-1], p[j]
				if from[v] != u {
					from[v], at[v] = u, ingressPortID(g, u, v)
				}
				dst[j-1] = at[v]
			}
		}
	})
	return h
}

// at returns path i's hop ports; do not append to the slice.
func (h hopPorts) at(i int) []topology.PortID {
	return h.ports[h.off[i]:h.off[i+1]:h.off[i+1]]
}

// addPath inserts the Algorithm 1 vertex chain (tag = hop index) of one
// expected lossless path, given by its hop ports, into tg.
func (tg *TaggedGraph) addPath(ports []topology.PortID) {
	var last int32
	for i, port := range ports {
		id := tg.intern(TagNode{Port: port, Tag: i + 1})
		if i > 0 {
			tg.addEdgeIDs(last, id)
		}
		last = id
	}
}
