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
//   - topology builders (Clos, fat-tree, BCube, Jellyfish) and routing
//     (shortest-path and valley-free up-down, with failures and ECMP);
//   - ELP enumerators (up-down, k-bounce, per-pair shortest, random,
//     BCube default routing);
//   - the tagging algorithms: Algorithm 1 (brute force), Algorithm 2
//     (greedy tag minimization), the provably optimal Clos scheme, rule
//     synthesis with conflict repair, and the deadlock-freedom verifier
//     for the two requirements of the paper's Theorem 5.1;
//   - the TCAM model: three-step pipeline, priority transition, and the
//     bitmap rule compression of §7;
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
	"repro/internal/dataplane"
	"repro/internal/deploy"
	"repro/internal/elp"
	"repro/internal/paper"
	"repro/internal/pfc"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/tcam"
	"repro/internal/topology"
	"repro/internal/workload"
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

// Re-exported routing types.
type (
	// Path is a node sequence.
	Path = routing.Path
	// Tables is destination-based forwarding state with ECMP.
	Tables = routing.Tables
)

// Routing disciplines for ComputeRoutes.
const (
	// Shortest computes plain shortest-path forwarding (valleys allowed
	// after failures).
	Shortest = routing.Shortest
	// UpDown computes valley-free forwarding for layered fabrics.
	UpDown = routing.UpDown
)

// ComputeRoutes builds forwarding tables toward every host.
func ComputeRoutes(g *Graph, d routing.Discipline) *Tables {
	return routing.ComputeToHosts(g, d)
}

// ELP is an expected-lossless-path set.
type ELP = elp.Set

// UpDownELP returns all shortest up-down paths between the Clos's ToRs.
func UpDownELP(c *Clos) *ELP { return elp.UpDownAll(c.Graph, c.ToRs) }

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

// AddRandomELP adds count random loop-free paths (Table 5's last row).
func AddRandomELP(s *ELP, g *Graph, endpoints []NodeID, count, maxHops int, seed int64) {
	elp.AddRandomPaths(s, g, endpoints, count, maxHops, seed)
}

// Re-exported core types: the paper's contribution.
type (
	// System is a synthesized Tagger deployment: rules plus the verified
	// runtime tagged graph.
	System = core.System
	// TaggedGraph is the paper's G(V, E) over (port, tag) vertices.
	TaggedGraph = core.TaggedGraph
	// Ruleset is the per-switch tag rewriting table.
	Ruleset = core.Ruleset
	// Rule is one (tag, InPort, OutPort) -> NewTag entry.
	Rule = core.Rule
	// MultiClassSystem is the §6 multi-application-class composition.
	MultiClassSystem = core.MultiClassSystem
)

// Synthesize runs the generic pipeline (Algorithm 1 + Algorithm 2 + rule
// synthesis + repair + verification) for any topology and ELP.
func Synthesize(g *Graph, paths *ELP) (*System, error) {
	return core.Synthesize(g, paths.Paths(), core.Options{})
}

// SynthesizeBruteForce runs Algorithm 1 only (the ablation baseline: one
// lossless priority per hop of the longest lossless route).
func SynthesizeBruteForce(g *Graph, paths *ELP) (*System, error) {
	return core.Synthesize(g, paths.Paths(), core.Options{SkipMerge: true})
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

// Re-exported TCAM model.
type (
	// TCAMEntry is one compressed pattern/mask entry (Figure 9).
	TCAMEntry = tcam.Entry
	// Pipeline is the three-step classification pipeline of §7.
	Pipeline = tcam.Pipeline
)

// CompressRules converts exact rules to compressed TCAM entries.
func CompressRules(rules []Rule) []TCAMEntry { return tcam.Compress(rules) }

// MaxEntriesPerSwitch returns the largest per-ASIC entry count.
func MaxEntriesPerSwitch(entries []TCAMEntry) int { return tcam.MaxPerSwitch(entries) }

// Re-exported simulator.
type (
	// Network is a deterministic packet-level PFC fabric simulation.
	Network = sim.Network
	// SimConfig parameterizes the simulator.
	SimConfig = sim.Config
	// FlowSpec describes one transfer.
	FlowSpec = sim.FlowSpec
	// Flow is a running transfer with statistics.
	Flow = sim.Flow
	// Scenario is a pre-built paper experiment.
	Scenario = workload.Scenario
	// ScenarioOptions selects the Tagger deployment for a scenario.
	ScenarioOptions = workload.Options
)

// NewSimulation builds a simulator over a topology and forwarding tables.
func NewSimulation(g *Graph, tables *Tables, cfg SimConfig) *Network {
	return sim.New(g, tables, cfg)
}

// DefaultSimConfig returns testbed-like simulator parameters.
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// DCQCNConfig parameterizes the simulator's congestion control.
type DCQCNConfig = sim.DCQCNConfig

// DefaultDCQCN returns testbed-proportioned congestion control
// parameters.
func DefaultDCQCN() DCQCNConfig { return sim.DefaultDCQCN() }

// RecoveryStats counts what a detect-and-break deadlock recovery scheme
// had to do (the related-work baseline the paper argues against).
type RecoveryStats = sim.RecoveryStats

// WatchdogStats is the continuous deadlock watchdog's tally — the
// chaos-soak verdict.
type WatchdogStats = sim.WatchdogStats

// DeadlockString renders a detected pause-wait cycle for logs.
func DeadlockString(cycle []string) string { return sim.DeadlockString(cycle) }

// Deployment artifacts (§6): serialized bundles and the SDN controller.
type (
	// Bundle is the JSON deployment artifact operators push to switches.
	Bundle = deploy.Bundle
	// ControllerEvent is a topology event delivered to the controller.
	ControllerEvent = controller.Event
	// ControllerEventKind is the typed event discriminator.
	ControllerEventKind = controller.EventKind
	// FabricController owns a fabric's Tagger deployment.
	FabricController = controller.Controller
	// SwitchAgent is the controller's per-switch install RPC surface.
	SwitchAgent = controller.SwitchAgent
	// DeployConfig tunes the controller's retry/backoff/rollback pipeline.
	DeployConfig = controller.DeployConfig
	// AuditEntry is one recorded deployment RPC attempt.
	AuditEntry = controller.AuditEntry
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
	// ChaosConfig parameterizes fault-schedule generation.
	ChaosConfig = chaos.Config
	// ChaosSchedule is a seeded, time-sorted fault plan.
	ChaosSchedule = chaos.Schedule
	// ChaosFault is one timed fault event.
	ChaosFault = chaos.Fault
	// ChaosFabric is the unreliable in-memory switch-agent fleet.
	ChaosFabric = chaos.Fabric
)

// Fault kinds for hand-built chaos faults.
const (
	ChaosFaultLinkDown          = chaos.FaultLinkDown
	ChaosFaultLinkUp            = chaos.FaultLinkUp
	ChaosFaultSwitchReboot      = chaos.FaultSwitchReboot
	ChaosFaultRPCDrop           = chaos.FaultRPCDrop
	ChaosFaultRPCDelay          = chaos.FaultRPCDelay
	ChaosFaultRPCDuplicate      = chaos.FaultRPCDuplicate
	ChaosFaultInstallTransient  = chaos.FaultInstallTransient
	ChaosFaultInstallPersistent = chaos.FaultInstallPersistent
	ChaosFaultInstallPartial    = chaos.FaultInstallPartial
	ChaosFaultPass              = chaos.FaultPass
)

// NewChaosFabric builds an unreliable agent fleet over the named switches.
func NewChaosFabric(switches []string) *ChaosFabric { return chaos.NewFabric(switches) }

// ExportBundle serializes a ruleset for deployment.
func ExportBundle(rs *Ruleset) *Bundle { return deploy.Export(rs) }

// ImportBundle reconstructs a ruleset from a bundle over a topology.
func ImportBundle(g *Graph, b *Bundle) (*Ruleset, error) { return deploy.Import(g, b) }

// UnmarshalBundle parses a serialized deployment bundle.
func UnmarshalBundle(data []byte) (*Bundle, error) { return deploy.Unmarshal(data) }

// DiffBundles computes the per-switch rule changes between deployments.
func DiffBundles(oldB, newB *Bundle) map[string]deploy.SwitchDiff { return deploy.Diff(oldB, newB) }

// NewClosController builds the §6 SDN controller deploying the optimal
// Clos scheme with bounce budget k. Options can point it at an
// unreliable switch fabric and tune the retry pipeline.
func NewClosController(c *Clos, k int, opts ...ControllerOption) (*FabricController, error) {
	return controller.NewClos(c, k, opts...)
}

// Dataplane is the frame-level (§7 Broadcom-style) compiled TCAM fabric.
type Dataplane = dataplane.Fabric

// CompileDataplane compiles every switch's TCAM from a ruleset.
func CompileDataplane(g *Graph, rs *Ruleset) *Dataplane { return dataplane.Compile(g, rs) }

// ChipSpec describes an ASIC for the §3.3 lossless-queue budget analysis.
type ChipSpec = pfc.ChipSpec

// Tomahawk40G and Tomahawk100G approximate two switch generations.
func Tomahawk40G() ChipSpec  { return pfc.Tomahawk40G() }
func Tomahawk100G() ChipSpec { return pfc.Tomahawk100G() }
