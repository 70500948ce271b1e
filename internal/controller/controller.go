// Package controller is the §6 SDN deployment story: a central
// controller that owns the ELP definition, synthesizes the Tagger rules,
// pushes deployment bundles, and reacts to topology events.
//
// Its behavior encodes the paper's two operational claims:
//
//   - link failures and reroutes need NO rule updates — the tagging rules
//     are static and defined only over local information, so on every
//     controller a link down or up marks the graph and pushes nothing;
//   - topology expansion produces an incremental bundle: only the new
//     switches (plus spine entries for their new ports) receive updates.
//
// Both rest on one rule: the ELP is a function of the topology, not of
// link health. The policy is evaluated on the intact fabric, failed links
// counted as up, so the failure paths it anticipates stay in the ELP
// whatever is down when the fabric grows; the churn controller's path
// tracker and synthesis read no link health at all. Drains and growth
// are intent changes; link health is not.
//
// Rule pushes go through one fault-tolerant engine (push.go): per-switch
// install RPCs against a SwitchAgent, verify-then-activate two-phase
// semantics, capped exponential backoff with seeded jitter, and rollback
// to the previous verified bundle when activation cannot complete — so an
// unreliable fabric never keeps running a half-installed rule set. Every
// attempt is recorded in a structured audit log and exported as metrics
// counters.
package controller

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/elp"
	"repro/internal/synthcache"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// ELPPolicy computes the expected lossless path set for the current
// topology. The controller re-evaluates it on topology *changes* (not on
// failures, which by design change nothing), always on the intact fabric.
type ELPPolicy func(g *topology.Graph) *elp.Set

// KBouncePolicy is the standard Clos policy: shortest up-down plus up to
// k bounces between the given endpoint roster (re-read on every
// evaluation so expansion picks up new ToRs).
func KBouncePolicy(endpoints func() []topology.NodeID, k int) ELPPolicy {
	return func(g *topology.Graph) *elp.Set {
		return elp.KBounce(g, endpoints(), k, nil)
	}
}

// EventKind is the type of a topology event. The zero value is invalid,
// so an Event built without a kind is rejected at Handle time, and a
// misspelled kind is a compile error rather than a runtime surprise.
type EventKind int

const (
	// EventLinkDown reports a failed link (rule plane: no-op).
	EventLinkDown EventKind = iota + 1
	// EventLinkUp reports a recovered link (rule plane: no-op).
	EventLinkUp
	// EventExpansion reports that the topology grew; the controller
	// re-evaluates the policy and pushes the incremental bundle.
	EventExpansion
	// EventSwitchDrain asks that switch A carry no expected lossless
	// paths (maintenance): an intent change, whose paths and rules leave
	// the fabric. Only a churn controller (NewChurn) keeps drain state;
	// the classic controllers refuse it.
	EventSwitchDrain
	// EventSwitchUndrain returns switch A to service.
	EventSwitchUndrain
)

// String renders the kind using the wire names ("link-down", "link-up",
// "expansion").
func (k EventKind) String() string {
	switch k {
	case EventLinkDown:
		return "link-down"
	case EventLinkUp:
		return "link-up"
	case EventExpansion:
		return "expansion"
	case EventSwitchDrain:
		return "switch-drain"
	case EventSwitchUndrain:
		return "switch-undrain"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is a topology event delivered to the controller.
type Event struct {
	Kind EventKind
	// A, B name the link endpoints for link events; drain events name
	// the switch in A.
	A, B topology.NodeID
}

// Controller owns the fabric's Tagger deployment.
type Controller struct {
	mu     sync.Mutex
	g      *topology.Graph
	policy ELPPolicy
	// synth builds the system from the policy's ELP: ClosSynthesize for
	// the Clos deployment, Synthesize for generic fabrics, a fresh
	// incremental engine for the churn controller.
	synth synthFunc

	current *core.System
	bundle  *deploy.Bundle // last fully verified-and-activated bundle

	agent     SwitchAgent
	deployCfg DeployConfig

	// pushedDiffs records every incremental update the controller
	// emitted; failureEvents counts failure notifications handled (with
	// zero rule churn). Both live under mu — use Diffs()/FailureCount().
	pushedDiffs   []map[string]deploy.SwitchDiff
	failureEvents int

	auditLog []AuditEntry
	auditSeq int

	// Churn-mode state (NewChurn): the incremental synthesis engine, the
	// ELP bookkeeping that feeds it and the per-delta-push stats.
	resynth  *core.Resynth
	tracker  *elp.Tracker
	deltaLog []DeltaStats
	// vacated holds the switches that ran rules under an earlier bundle
	// and have none in a later one; Reconcile sweeps them along with the
	// current bundle's, so a stale table left behind gets emptied.
	vacated map[string]bool
	// synthCache, when set (WithSynthCache), memoizes full synthesis:
	// fresh deploys, expansion resyncs and churn rebuild fallbacks hit
	// the cache instead of re-running synthesis on topologies it has
	// already seen. Cached systems are rule-identical to fresh ones, so
	// deployment behavior is unchanged.
	synthCache *synthcache.Cache

	// tel receives the deployment metrics (deploy.* counters, per-switch
	// retry/rollback gauges) and the push-pipeline spans. Each controller
	// has its own registry so Counters() stays deterministic per instance.
	tel *telemetry.Registry
}

// Option customizes a controller at construction time.
type Option func(*Controller)

// WithAgent points the controller's install RPCs at the given switch
// agent (default: a perfectly reliable in-process loopback).
func WithAgent(a SwitchAgent) Option {
	return func(c *Controller) { c.agent = a }
}

// WithDeployConfig overrides the retry/backoff parameters.
func WithDeployConfig(cfg DeployConfig) Option {
	return func(c *Controller) { c.deployCfg = cfg }
}

// WithSynthCache routes the controller's synthesis through the given
// cache. Sharing one cache across controllers on one graph turns
// repeated synthesis of an already-seen topology into a lookup;
// correctness is unchanged because cached systems are rule-identical to
// from-scratch synthesis (see internal/synthcache).
func WithSynthCache(cache *synthcache.Cache) Option {
	return func(c *Controller) { c.synthCache = cache }
}

// synthFunc builds a system from the policy's ELP over c's graph, through
// c's synthesis cache when one is attached.
type synthFunc func(c *Controller, paths *elp.Set) (*core.System, error)

func newController(g *topology.Graph, policy ELPPolicy, synth synthFunc, opts []Option) (*Controller, error) {
	ctl := &Controller{
		g:         g,
		policy:    policy,
		synth:     synth,
		agent:     newLoopbackAgent(),
		deployCfg: DefaultDeployConfig(),
		tel:       telemetry.NewRegistry(),
		vacated:   make(map[string]bool),
	}
	for _, o := range opts {
		o(ctl)
	}
	if err := ctl.resync(); err != nil {
		return nil, err
	}
	return ctl, nil
}

// NewClos builds a controller deploying the optimal Clos scheme with the
// given bounce budget.
func NewClos(c *topology.Clos, k int, opts ...Option) (*Controller, error) {
	return newController(c.Graph,
		KBouncePolicy(func() []topology.NodeID { return c.ToRs }, k),
		func(ctl *Controller, s *elp.Set) (*core.System, error) {
			if ctl.synthCache == nil {
				return core.ClosSynthesize(ctl.g, s.Paths(), k)
			}
			r, err := ctl.synthCache.SynthesizeClos(ctl.g, s.Paths(), k)
			return r.Sys, err
		}, opts)
}

// NewGeneric builds a controller running Algorithms 1+2 under the given
// policy.
func NewGeneric(g *topology.Graph, policy ELPPolicy, opts ...Option) (*Controller, error) {
	return newController(g, policy,
		func(ctl *Controller, s *elp.Set) (*core.System, error) {
			if ctl.synthCache == nil {
				return core.Synthesize(ctl.g, s.Paths(), core.Options{})
			}
			r, err := ctl.synthCache.Synthesize(ctl.g, s.Paths(), core.Options{})
			return r.Sys, err
		}, opts)
}

// System returns the currently deployed system.
func (c *Controller) System() *core.System {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.current
}

// Bundle returns the currently deployed bundle.
func (c *Controller) Bundle() *deploy.Bundle {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bundle
}

// Diffs returns a copy of every incremental update the controller has
// pushed, for tests and audit.
func (c *Controller) Diffs() []map[string]deploy.SwitchDiff {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]map[string]deploy.SwitchDiff(nil), c.pushedDiffs...)
}

// FailureCount returns the number of failure notifications handled (each
// with zero rule churn, which TestFailuresAreRuleNoOps asserts).
func (c *Controller) FailureCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failureEvents
}

// Audit returns a copy of the deployment audit log: one entry per RPC
// attempt, in order.
func (c *Controller) Audit() []AuditEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]AuditEntry(nil), c.auditLog...)
}

// Counters returns a snapshot of the deployment counters (attempts,
// failures, rollbacks, backoff time): every telemetry counter in the
// "deploy." namespace, unlabeled. Per-switch gauges and pipeline spans
// live on the full registry (Telemetry()); this view stays deterministic
// for a fixed fault schedule, which the chaos-soak determinism test
// relies on.
func (c *Controller) Counters() map[string]int64 {
	out := make(map[string]int64)
	for _, cs := range c.tel.Snapshot().Counters {
		if strings.HasPrefix(cs.Name, "deploy.") && len(cs.Labels) == 0 {
			out[cs.Name] = cs.Value
		}
	}
	return out
}

// Telemetry returns the registry the controller reports into, for
// merging into a process-wide ops registry or asserting on spans.
func (c *Controller) Telemetry() *telemetry.Registry { return c.tel }

// resync recomputes the system from the policy and commits it.
func (c *Controller) resync() error {
	sys, err := c.synth(c, c.intact())
	if err != nil {
		return fmt.Errorf("controller: synthesis failed: %w", err)
	}
	return c.commit(sys, EventExpansion)
}

// commit is the one way a synthesized system reaches the fabric: verify,
// export, push, record the diff against the previous deployment, advance.
//
// A classic controller pushes whole bundles, and a failed push leaves the
// previous deployment current (and active on the fabric — push rolled it
// back). A churn controller, once deployed, pushes per-switch deltas and
// its intent always advances, even when the push fails: the fabric stays
// consistent on its previous bundle and Reconcile re-drives it toward
// intent. Called with c.mu held (or before c is shared).
func (c *Controller) commit(sys *core.System, event EventKind) error {
	if err := sys.Runtime.Verify(); err != nil {
		return fmt.Errorf("controller: refusing to deploy unverified rules: %w", err)
	}
	newBundle := deploy.Export(sys.Rules)
	var diffs map[string]deploy.SwitchDiff
	if c.bundle != nil {
		diffs = deploy.Diff(c.bundle, newBundle)
	}
	var pushErr error
	if c.resynth != nil && c.bundle != nil {
		pushErr = c.pushDelta(newBundle, diffs, event)
	} else if err := c.pushBundle(newBundle); err != nil {
		return err
	}
	if len(diffs) > 0 {
		c.pushedDiffs = append(c.pushedDiffs, diffs)
	}
	for sw := range diffs {
		if _, ok := newBundle.Switches[sw]; !ok {
			c.vacated[sw] = true
		}
	}
	c.current, c.bundle = sys, newBundle
	return pushErr
}

// Handle processes one topology event; it is the one event entry of
// every controller.
//
// Link health is not intent: a link down or up marks the graph, is
// counted in FailureCount, and deliberately pushes nothing. The installed
// rules already cover every reroute the ELP anticipates, and wayward
// packets demote to lossy. Drains and growth are intent changes. An
// expansion re-evaluates the policy and pushes the incremental bundle; a
// churn controller re-synthesizes incrementally and pushes per-switch
// deltas, and it alone acts on drains.
//
// On a churn controller intent always advances, even when the delta push
// fails: the fabric stays consistent on its previous bundle (two-phase
// rollback), the error is returned, and Reconcile re-drives the fabric
// toward intent.
func (c *Controller) Handle(ev Event) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch ev.Kind {
	case EventLinkDown:
		c.failureEvents++
		c.g.FailLink(ev.A, ev.B)
		return nil
	case EventLinkUp:
		c.failureEvents++
		c.g.RestoreLink(ev.A, ev.B)
		return nil
	case EventExpansion:
		if c.resynth == nil {
			return c.resync()
		}
		return c.applyChurn(ev, c.tracker.AddPaths(c.intact().Paths()), nil)
	case EventSwitchDrain, EventSwitchUndrain:
		if c.resynth == nil {
			return fmt.Errorf("controller: %s needs drain state, which only a churn controller (NewChurn) keeps", ev.Kind)
		}
		if ev.Kind == EventSwitchDrain {
			return c.applyChurn(ev, nil, c.tracker.Drain(ev.A))
		}
		return c.applyChurn(ev, c.tracker.Undrain(ev.A), nil)
	default:
		return fmt.Errorf("controller: unknown event kind %q", ev.Kind)
	}
}

// intact evaluates the policy with every failed link of c's graph
// counted as up, then fails them again: the ELP is a function of the
// topology, not of link health, and the policy is the one thing in the
// controller that reads link health (the path tracker and synthesis read
// none). Links are restored by ID, so a failed link parallel to a healthy
// one stays exact. Called with c.mu held (or before c is shared).
func (c *Controller) intact() *elp.Set {
	failed := c.g.FailedLinks()
	for _, id := range failed {
		c.g.Link(id).Failed = false
	}
	defer func() {
		for _, id := range failed {
			c.g.Link(id).Failed = true
		}
	}()
	return c.policy(c.g)
}
