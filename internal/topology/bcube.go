package topology

import "fmt"

// BCube is a built BCube(n, k) topology.
//
// BCube (Guo et al., SIGCOMM 2009) is a server-centric topology: n^(k+1)
// servers, each with k+1 ports, and k+1 levels of switches with n^k
// switches per level. Server s (written in base n as a_k...a_1a_0)
// connects at level l to switch number formed by deleting digit a_l.
type BCube struct {
	Graph    *Graph
	N, K     int
	Servers  []NodeID       // index = server number in [0, n^(k+1))
	Switches [][]NodeID     // Switches[l][i] = i-th switch of level l
	serverNo map[NodeID]int // server node -> numeric address
	switchNo map[NodeID]int // switch node -> index within level
}

// NewBCube builds BCube(n, k). n is the switch port count (and radix of
// server addresses); k is the highest level, so the structure has k+1
// switch levels. n must be >= 2 and k >= 0; sizes grow as n^(k+1) servers.
func NewBCube(n, k int) (*BCube, error) {
	if n < 2 {
		return nil, fmt.Errorf("bcube: n must be >= 2, got %d", n)
	}
	if k < 0 {
		return nil, fmt.Errorf("bcube: k must be >= 0, got %d", k)
	}
	nServers := 1
	for i := 0; i <= k; i++ {
		nServers *= n
	}
	nSwitchesPerLevel := nServers / n

	g := New()
	b := &BCube{
		Graph: g, N: n, K: k,
		serverNo: make(map[NodeID]int),
		switchNo: make(map[NodeID]int),
	}
	for s := 0; s < nServers; s++ {
		id := g.AddNode(fmt.Sprintf("B%d", s), KindRelayHost, 0)
		b.Servers = append(b.Servers, id)
		b.serverNo[id] = s
	}
	for l := 0; l <= k; l++ {
		level := make([]NodeID, 0, nSwitchesPerLevel)
		for i := 0; i < nSwitchesPerLevel; i++ {
			id := g.AddNode(fmt.Sprintf("W%d_%d", l, i), KindSwitch, l+1)
			level = append(level, id)
			b.switchNo[id] = i
		}
		b.Switches = append(b.Switches, level)
	}

	// Connect servers to switches. Server address digits a_k..a_0; at
	// level l the server connects to the switch indexed by the address
	// with digit l removed, and plugs into switch port a_l.
	pow := make([]int, k+2)
	pow[0] = 1
	for i := 1; i <= k+1; i++ {
		pow[i] = pow[i-1] * n
	}
	for s := 0; s < nServers; s++ {
		for l := 0; l <= k; l++ {
			digit := (s / pow[l]) % n
			// Index with digit l removed: high part shifted down.
			high := s / pow[l+1]
			low := s % pow[l]
			swIdx := high*pow[l] + low
			_ = digit
			g.Connect(b.Servers[s], b.Switches[l][swIdx])
		}
	}
	return b, nil
}

// ServerNumber returns the numeric BCube address of a server node.
func (b *BCube) ServerNumber(id NodeID) (int, bool) {
	no, ok := b.serverNo[id]
	return no, ok
}

// Digit returns digit l (base n) of server address s.
func (b *BCube) Digit(s, l int) int {
	for i := 0; i < l; i++ {
		s /= b.N
	}
	return s % b.N
}
