// Package fingerprint holds the pod decomposition behind the synthesis
// cache's pod memoization (pods.go, internal/synthcache) and two content
// hashes the cache does not use: Canonicalize and PathsSum stay only
// because bench/e2e's staged spans (fingerprint.canonicalize) call them.
// The cache keys on the graph instance and hashes raw node IDs.
//
// A Canon is a canonical ordering of a graph's nodes plus a SHA-256
// fingerprint of the graph relabeled into that order. Node IDs never
// enter the fingerprint, so two graphs that differ only by a permutation
// of their node IDs (same wiring, same kinds and layers, same port
// numbering) hash equal whenever canonicalization assigns them the same
// order. The ordering is computed by Weisfeiler-Leman color refinement
// with node-name tie-breaks. Link health (Failed flags) is excluded.
package fingerprint

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"

	"repro/internal/routing"
	"repro/internal/topology"
)

// Fingerprint is a 256-bit content hash.
type Fingerprint [sha256.Size]byte

// String renders the first 12 hex digits — enough to log and compare by
// eye, like an abbreviated git object name.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:6]) }

// Canon is the canonical view of a graph: the fingerprint of its
// relabeled encoding plus the node order that produced it.
type Canon struct {
	// FP hashes the relabeled structure (no names, no IDs, no health).
	FP Fingerprint
	// Order maps canonical position -> node ID.
	Order []topology.NodeID
	// Pos maps node ID -> canonical position (the inverse of Order).
	Pos []int32
}

// mix64 is a splitmix64 finalizer: cheap, deterministic across runs.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// wlRounds bounds color refinement. Three rounds separate every node
// class the repo's topology families produce; more rounds would only
// sharpen the ordering (never change the fingerprint's soundness).
const wlRounds = 3

// Canonicalize computes the canonical order and fingerprint of g.
func Canonicalize(g *topology.Graph) *Canon {
	n := g.NumNodes()
	colors := make([]uint64, n)
	next := make([]uint64, n)
	for _, id := range g.Nodes() {
		nd := g.Node(id)
		colors[id] = mix64(uint64(nd.Kind)<<40 ^ uint64(uint32(nd.Layer))<<8 ^ uint64(len(nd.Ports)))
	}
	// WL refinement: a node's new color mixes its own color with the
	// per-port sequence of peer colors (port order is part of the
	// structure — rules match on port numbers).
	for round := 0; round < wlRounds; round++ {
		for _, id := range g.Nodes() {
			h := mix64(colors[id])
			for _, pid := range g.Node(id).Ports {
				p := g.Port(pid)
				pc := uint64(0)
				if p.Peer != topology.InvalidNode {
					pc = colors[p.Peer]
				}
				h = mix64(h ^ pc)
			}
			next[id] = h
		}
		colors, next = next, colors
	}

	c := &Canon{
		Order: make([]topology.NodeID, n),
		Pos:   make([]int32, n),
	}
	for i := range c.Order {
		c.Order[i] = topology.NodeID(i)
	}
	sort.Slice(c.Order, func(i, j int) bool {
		a, b := c.Order[i], c.Order[j]
		if colors[a] != colors[b] {
			return colors[a] < colors[b]
		}
		return g.Node(a).Name < g.Node(b).Name
	})
	for pos, id := range c.Order {
		c.Pos[id] = int32(pos)
	}

	// Encode the relabeled graph. Per node in canonical order: kind,
	// layer, port count, then per port in number order the peer's
	// canonical position and the peer-side port number. That pins the
	// complete wiring including port numbering, which rule translation
	// relies on.
	buf := make([]byte, 0, 16+n*8+g.NumPorts()*4)
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = binary.AppendUvarint(buf, uint64(g.NumLinks()))
	buf = binary.AppendUvarint(buf, uint64(g.NumPorts()))
	for _, id := range c.Order {
		nd := g.Node(id)
		buf = binary.AppendUvarint(buf, uint64(nd.Kind))
		buf = binary.AppendVarint(buf, int64(nd.Layer))
		buf = binary.AppendUvarint(buf, uint64(len(nd.Ports)))
		for _, pid := range nd.Ports {
			p := g.Port(pid)
			if p.Peer == topology.InvalidNode {
				buf = binary.AppendUvarint(buf, 0)
				buf = binary.AppendUvarint(buf, 0)
				continue
			}
			l := g.Link(p.Link)
			peerPort := l.APort
			if l.A == id {
				peerPort = l.BPort
			}
			buf = binary.AppendUvarint(buf, uint64(c.Pos[p.Peer])+1)
			buf = binary.AppendUvarint(buf, uint64(peerPort)+1)
		}
	}
	c.FP = sha256.Sum256(buf)
	return c
}

// PathsSum hashes a path sequence (in order, not as a set) as node
// canonical positions.
func PathsSum(c *Canon, paths []routing.Path) Fingerprint {
	size := 8
	for _, p := range paths {
		size += 2 + len(p)*3
	}
	buf := make([]byte, 0, size)
	buf = binary.AppendUvarint(buf, uint64(len(paths)))
	for _, p := range paths {
		buf = binary.AppendUvarint(buf, uint64(len(p)))
		for _, n := range p {
			buf = binary.AppendUvarint(buf, uint64(c.Pos[n]))
		}
	}
	return sha256.Sum256(buf)
}
