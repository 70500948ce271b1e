// Package tagger is a complete implementation of "Tagger: Practical PFC
// Deadlock Prevention in Data Center Networks" (Hu et al., CoNEXT 2017).
//
// Tagger prevents PFC-induced deadlocks in RoCE data centers without
// touching routing protocols: given an operator-supplied set of Expected
// Lossless Paths (ELP), it computes static per-switch match-action rules
// that rewrite a small tag carried in each packet (DSCP in practice) so
// that no cyclic buffer dependency can ever form. Packets that stray from
// the ELP — link failures, routing loops — are demoted to a lossy queue
// and can no longer propagate PAUSE.
//
// The package exposes:
//
//   - topology builders (Clos, fat-tree, BCube, Jellyfish);
//   - ELP enumerators (k-bounce, per-pair shortest, BCube default
//     routing);
//   - the tagging algorithms: Algorithm 1 (brute force), Algorithm 2
//     (greedy tag minimization), the provably optimal Clos scheme, rule
//     synthesis with conflict repair, and the deadlock-freedom verifier
//     for the two requirements of the paper's Theorem 5.1;
//   - the TCAM model: the bitmap rule compression of §7;
//   - a deterministic packet-level fabric simulator with PFC
//     PAUSE/RESUME, used to reproduce the paper's testbed experiments
//     (Figures 10-12) and measure overhead;
//   - experiment drivers regenerating every table and figure of the
//     paper's evaluation (see experiments.go and EXPERIMENTS.md).
//
// Quick start:
//
//	clos, _ := tagger.NewClos(tagger.ClosConfig{
//		Pods: 2, ToRsPerPod: 2, LeafsPerPod: 2, Spines: 2, HostsPerToR: 4,
//	})
//	elp := tagger.KBounceELP(clos, 1)             // lossless up to 1 bounce
//	sys, _ := tagger.SynthesizeClos(clos, elp, 1) // 2 lossless queues
//	fmt.Println(sys.NumLosslessQueues(), len(sys.Rules.Rules()))
package tagger

import (
	"repro/internal/chaos"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/elp"
	"repro/internal/paper"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/tcam"
	"repro/internal/topology"
)

// Re-exported topology types and constructors.
type (
	// Graph is a data center topology.
	Graph = topology.Graph
	// NodeID identifies a node in a Graph.
	NodeID = topology.NodeID
	// Clos is a built three-layer Clos with its layer rosters.
	Clos = topology.Clos
	// ClosConfig parameterizes NewClos.
	ClosConfig = topology.ClosConfig
	// FatTree is a built k-ary fat-tree.
	FatTree = topology.FatTree
	// BCube is a built BCube(n,k) server-centric topology.
	BCube = topology.BCube
	// Jellyfish is a built random-regular topology.
	Jellyfish = topology.Jellyfish
	// JellyfishConfig parameterizes NewJellyfish.
	JellyfishConfig = topology.JellyfishConfig
)

// NewClos builds a three-layer Clos topology.
func NewClos(cfg ClosConfig) (*Clos, error) { return topology.NewClos(cfg) }

// PaperTestbed returns the Clos of the paper's Figure 2 testbed.
func PaperTestbed() *Clos { return paper.Testbed() }

// NewFatTree builds the classic k-ary fat-tree.
func NewFatTree(k int) (*FatTree, error) { return topology.NewFatTree(k) }

// NewBCube builds BCube(n, k).
func NewBCube(n, k int) (*BCube, error) { return topology.NewBCube(n, k) }

// NewJellyfish builds a Jellyfish random-regular topology.
func NewJellyfish(cfg JellyfishConfig) (*Jellyfish, error) { return topology.NewJellyfish(cfg) }

// Path is a node sequence.
type Path = routing.Path

// ELP is an expected-lossless-path set.
type ELP = elp.Set

// KBounceELP returns all up-to-k-bounce paths between the Clos's ToRs
// (including the shortest up-down paths).
func KBounceELP(c *Clos, k int) *ELP { return elp.KBounce(c.Graph, c.ToRs, k, nil) }

// ELPFromKBounce is KBounceELP for arbitrary layered topologies: all
// up-to-k-bounce paths between the given endpoints (e.g. a fat-tree's
// edge switches).
func ELPFromKBounce(g *Graph, endpoints []NodeID, k int) *ELP {
	return elp.KBounce(g, endpoints, k, nil)
}

// ShortestELP returns one shortest path per ordered switch pair — the
// Table 5 ELP for Jellyfish-like topologies.
func ShortestELP(g *Graph, endpoints []NodeID) *ELP { return elp.ShortestAll(g, endpoints) }

// BCubeELP returns BCube's default-routing path diversity between all
// servers.
func BCubeELP(b *BCube) *ELP { return elp.BCubeELP(b, nil) }

// Re-exported core types: the paper's contribution.
type (
	// System is a synthesized Tagger deployment: rules plus the verified
	// runtime tagged graph.
	System = core.System
	// Ruleset is the per-switch tag rewriting table.
	Ruleset = core.Ruleset
	// Rule is one (tag, InPort, OutPort) -> NewTag entry.
	Rule = core.Rule
)

// Synthesize runs the generic pipeline (Algorithm 1 + Algorithm 2 + rule
// synthesis + repair + verification) for any topology and ELP.
func Synthesize(g *Graph, paths *ELP) (*System, error) {
	return core.Synthesize(g, paths.Paths(), core.Options{})
}

// SynthesizeClos runs the topology-specific optimal scheme for layered
// Clos/fat-trees: tags count bounces, k+1 lossless priorities.
func SynthesizeClos(c *Clos, paths *ELP, maxBounces int) (*System, error) {
	return core.ClosSynthesize(c.Graph, paths.Paths(), maxBounces)
}

// SynthesizeFatTree is SynthesizeClos for fat-trees.
func SynthesizeFatTree(ft *FatTree, paths *ELP, maxBounces int) (*System, error) {
	return core.ClosSynthesize(ft.Graph, paths.Paths(), maxBounces)
}

// MinLosslessQueues is the §4.4 lower bound: k-bounce losslessness needs
// at least k+1 lossless priorities.
func MinLosslessQueues(k int) int { return core.MinLosslessQueues(k) }

// TCAMEntry is one compressed pattern/mask entry (Figure 9).
type TCAMEntry = tcam.Entry

// CompressRules converts exact rules to compressed TCAM entries.
func CompressRules(rules []Rule) []TCAMEntry { return tcam.Compress(rules) }

// MaxEntriesPerSwitch returns the largest per-ASIC entry count.
func MaxEntriesPerSwitch(entries []TCAMEntry) int { return tcam.MaxPerSwitch(entries) }

// DeadlockString renders a detected pause-wait cycle for logs.
func DeadlockString(cycle []string) string { return sim.DeadlockString(cycle) }

// Deployment artifacts (§6): serialized bundles and the SDN controller.
type (
	// Bundle is the JSON deployment artifact operators push to switches.
	Bundle = deploy.Bundle
	// ControllerEvent is a topology event delivered to the controller.
	ControllerEvent = controller.Event
	// FabricController owns a fabric's Tagger deployment.
	FabricController = controller.Controller
	// SwitchAgent is the controller's per-switch install RPC surface.
	SwitchAgent = controller.SwitchAgent
	// DeployConfig tunes the controller's retry/backoff/rollback pipeline.
	DeployConfig = controller.DeployConfig
	// ControllerOption customizes controller construction.
	ControllerOption = controller.Option
)

// Typed controller event kinds; a misspelled kind is now a compile error.
const (
	EventLinkDown  = controller.EventLinkDown
	EventLinkUp    = controller.EventLinkUp
	EventExpansion = controller.EventExpansion
)

// WithSwitchAgent points a controller's install RPCs at the given agent.
func WithSwitchAgent(a SwitchAgent) ControllerOption { return controller.WithAgent(a) }

// WithDeployConfig overrides a controller's retry/backoff parameters.
func WithDeployConfig(cfg DeployConfig) ControllerOption { return controller.WithDeployConfig(cfg) }

// DefaultDeployConfig returns the standard pipeline parameters.
func DefaultDeployConfig() DeployConfig { return controller.DefaultDeployConfig() }

// Chaos harness: seeded fault schedules and the unreliable switch fabric.
type (
	// ChaosFault is one timed fault event.
	ChaosFault = chaos.Fault
	// ChaosFabric is the unreliable in-memory switch-agent fleet.
	ChaosFabric = chaos.Fabric
)

// Fault kinds for hand-built chaos faults.
const (
	ChaosFaultInstallTransient  = chaos.FaultInstallTransient
	ChaosFaultInstallPersistent = chaos.FaultInstallPersistent
	ChaosFaultInstallPartial    = chaos.FaultInstallPartial
	ChaosFaultPass              = chaos.FaultPass
)

// NewChaosFabric builds an unreliable agent fleet over the named switches.
func NewChaosFabric(switches []string) *ChaosFabric { return chaos.NewFabric(switches) }

// DiffBundles computes the per-switch rule changes between deployments.
func DiffBundles(oldB, newB *Bundle) map[string]deploy.SwitchDiff { return deploy.Diff(oldB, newB) }

// NewClosController builds the §6 SDN controller deploying the optimal
// Clos scheme with bounce budget k. Options can point it at an
// unreliable switch fabric and tune the retry pipeline.
func NewClosController(c *Clos, k int, opts ...ControllerOption) (*FabricController, error) {
	return controller.NewClos(c, k, opts...)
}
