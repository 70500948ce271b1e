package topology

import "fmt"

// ClosConfig describes a three-layer Clos (ToR / leaf / spine) of the shape
// used throughout the Tagger paper (Figure 2): pods of ToRs and leaves,
// with every leaf connected to every spine and every ToR connected to every
// leaf in its pod.
type ClosConfig struct {
	Pods        int // number of pods
	ToRsPerPod  int // ToR switches per pod
	LeafsPerPod int // leaf switches per pod
	Spines      int // spine switches shared by all pods
	HostsPerToR int // servers per ToR
}

// Validate reports the first configuration error, or nil.
func (c ClosConfig) Validate() error {
	switch {
	case c.Pods <= 0:
		return fmt.Errorf("clos: Pods must be positive, got %d", c.Pods)
	case c.ToRsPerPod <= 0:
		return fmt.Errorf("clos: ToRsPerPod must be positive, got %d", c.ToRsPerPod)
	case c.LeafsPerPod <= 0:
		return fmt.Errorf("clos: LeafsPerPod must be positive, got %d", c.LeafsPerPod)
	case c.Spines <= 0:
		return fmt.Errorf("clos: Spines must be positive, got %d", c.Spines)
	case c.HostsPerToR < 0:
		return fmt.Errorf("clos: HostsPerToR must be non-negative, got %d", c.HostsPerToR)
	}
	return nil
}

// Clos is a built Clos topology together with its layer rosters.
type Clos struct {
	Graph  *Graph
	Config ClosConfig
	Spines []NodeID
	Leaves []NodeID // pod-major order: pod 0 leaves, pod 1 leaves, ...
	ToRs   []NodeID // pod-major order
	Hosts  []NodeID // ToR-major order
}

// PaperTestbed returns the ClosConfig matching the testbed of the paper's
// Figure 2 / §8: two pods, each with two leaves and two ToRs, two spines,
// and four hosts per ToR (H1..H16, T1..T4, L1..L4, S1..S2).
func PaperTestbed() ClosConfig {
	return ClosConfig{Pods: 2, ToRsPerPod: 2, LeafsPerPod: 2, Spines: 2, HostsPerToR: 4}
}

// NewClos builds a three-layer Clos. Node names follow the paper's figures:
// spines S1..Sn, leaves L1..Ln, ToRs T1..Tn and hosts H1..Hn, numbered
// globally (not per pod) so that the paper's scenarios can be written
// verbatim ("fail link L1-T1").
func NewClos(cfg ClosConfig) (*Clos, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := New()
	c := &Clos{Graph: g, Config: cfg}

	for s := 0; s < cfg.Spines; s++ {
		c.Spines = append(c.Spines, g.AddNode(fmt.Sprintf("S%d", s+1), KindSpine, 3))
	}
	leafN, torN, hostN := 1, 1, 1
	for p := 0; p < cfg.Pods; p++ {
		podLeaves := make([]NodeID, 0, cfg.LeafsPerPod)
		for l := 0; l < cfg.LeafsPerPod; l++ {
			id := g.AddNode(fmt.Sprintf("L%d", leafN), KindLeaf, 2)
			leafN++
			podLeaves = append(podLeaves, id)
			c.Leaves = append(c.Leaves, id)
			for _, s := range c.Spines {
				g.Connect(id, s)
			}
		}
		for t := 0; t < cfg.ToRsPerPod; t++ {
			id := g.AddNode(fmt.Sprintf("T%d", torN), KindToR, 1)
			torN++
			c.ToRs = append(c.ToRs, id)
			for _, l := range podLeaves {
				g.Connect(id, l)
			}
			for h := 0; h < cfg.HostsPerToR; h++ {
				hid := g.AddNode(fmt.Sprintf("H%d", hostN), KindHost, 0)
				hostN++
				c.Hosts = append(c.Hosts, hid)
				g.Connect(hid, id)
			}
		}
	}
	return c, nil
}

// Expand grows the Clos by adding pods under the existing spines — the
// §6 "Topology changes" scenario: new leaves use up empty spine ports,
// and (as the paper observes) none of the older switches need any rule
// changes. The rosters and Config are updated in place.
func (c *Clos) Expand(morePods int) error {
	if morePods <= 0 {
		return fmt.Errorf("clos: morePods must be positive, got %d", morePods)
	}
	g := c.Graph
	cfg := c.Config
	leafN := len(c.Leaves) + 1
	torN := len(c.ToRs) + 1
	hostN := len(c.Hosts) + 1
	for p := 0; p < morePods; p++ {
		podLeaves := make([]NodeID, 0, cfg.LeafsPerPod)
		for l := 0; l < cfg.LeafsPerPod; l++ {
			id := g.AddNode(fmt.Sprintf("L%d", leafN), KindLeaf, 2)
			leafN++
			podLeaves = append(podLeaves, id)
			c.Leaves = append(c.Leaves, id)
			for _, s := range c.Spines {
				g.Connect(id, s)
			}
		}
		for t := 0; t < cfg.ToRsPerPod; t++ {
			id := g.AddNode(fmt.Sprintf("T%d", torN), KindToR, 1)
			torN++
			c.ToRs = append(c.ToRs, id)
			for _, l := range podLeaves {
				g.Connect(id, l)
			}
			for h := 0; h < cfg.HostsPerToR; h++ {
				hid := g.AddNode(fmt.Sprintf("H%d", hostN), KindHost, 0)
				hostN++
				c.Hosts = append(c.Hosts, hid)
				g.Connect(hid, id)
			}
		}
	}
	c.Config.Pods += morePods
	return nil
}

// FatTree is a built k-ary fat-tree.
type FatTree struct {
	Graph *Graph
	K     int
	Cores []NodeID
	Aggs  []NodeID // pod-major
	Edges []NodeID // pod-major
	Hosts []NodeID // edge-major
}

// NewFatTree builds the classic k-ary fat-tree (Al-Fares et al.): (k/2)^2
// core switches, k pods each with k/2 aggregation and k/2 edge switches,
// and k/2 hosts per edge switch. k must be even and >= 2.
func NewFatTree(k int) (*FatTree, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("fattree: k must be even and >= 2, got %d", k)
	}
	g := New()
	ft := &FatTree{Graph: g, K: k}
	half := k / 2

	for i := 0; i < half*half; i++ {
		ft.Cores = append(ft.Cores, g.AddNode(fmt.Sprintf("C%d", i+1), KindCore, 3))
	}
	aggN, edgeN, hostN := 1, 1, 1
	for p := 0; p < k; p++ {
		podAggs := make([]NodeID, 0, half)
		for a := 0; a < half; a++ {
			id := g.AddNode(fmt.Sprintf("A%d", aggN), KindAgg, 2)
			aggN++
			podAggs = append(podAggs, id)
			ft.Aggs = append(ft.Aggs, id)
			// Aggregation switch a in each pod connects to core group a:
			// cores [a*half, (a+1)*half).
			for c := 0; c < half; c++ {
				g.Connect(id, ft.Cores[a*half+c])
			}
		}
		for e := 0; e < half; e++ {
			id := g.AddNode(fmt.Sprintf("E%d", edgeN), KindEdge, 1)
			edgeN++
			ft.Edges = append(ft.Edges, id)
			for _, a := range podAggs {
				g.Connect(id, a)
			}
			for h := 0; h < half; h++ {
				hid := g.AddNode(fmt.Sprintf("H%d", hostN), KindHost, 0)
				hostN++
				ft.Hosts = append(ft.Hosts, hid)
				g.Connect(hid, id)
			}
		}
	}
	return ft, nil
}
