package controller

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/elp"
	"repro/internal/routing"
	"repro/internal/synthcache"
	"repro/internal/topology"
)

// This file is the churn-resilient control loop: a controller mode where
// topology churn (link flaps, switch drains, pod adds) re-synthesizes
// incrementally (core.Resynth + elp.Tracker) and deploys per-switch rule
// *deltas* computed against each switch's live active table, instead of
// re-running the full pipeline and re-pushing whole bundles. A
// reconciliation pass re-fetches live state and re-issues deltas until
// the fabric matches intent, so a switch that reboots mid-churn converges
// instead of wedging.

// DeltaAgent extends SwitchAgent with the two RPCs delta deploys need:
// reading a switch's ACTIVE table (the ground truth deltas are computed
// against) and Patch, which applies a delta to a copy of the active table
// and writes the result into the STAGED slot. Patch recomputes from
// ACTIVE on every call, so re-issuing a delta after a lost reply or a
// partial write is idempotent.
type DeltaAgent interface {
	SwitchAgent
	// FetchActive returns the currently active bundle on the switch.
	FetchActive(sw string) (deploy.SwitchBundle, error)
	// Patch stages ApplyDelta(active, d) on the switch.
	Patch(sw string, d deploy.SwitchDiff) error
}

// DeltaStats summarizes one delta push: what the churn event cost the
// fabric in rule updates. It is appended to the controller's DeltaLog,
// mirrored into the audit log as an OpDelta entry, and exported as
// deploy.delta.* counters.
type DeltaStats struct {
	// Event is the churn event kind that triggered the push.
	Event string
	// Rule-level churn across all patched switches. RulesUnchanged counts
	// desired rules that were already live (on both patched and skipped
	// switches).
	RulesAdded, RulesRemoved, RulesModified, RulesUnchanged int
	// SwitchesChanged is the number of switches patched; SwitchesSkipped
	// the number whose active table already matched intent (no-op).
	SwitchesChanged, SwitchesSkipped int
	// FullPushes counts switches that got a wholesale bundle install
	// because the agent does not implement DeltaAgent.
	FullPushes int
}

// String renders the stats in audit-log form.
func (s DeltaStats) String() string {
	return fmt.Sprintf("%s: +%d -%d ~%d =%d rules, %d switches changed, %d skipped",
		s.Event, s.RulesAdded, s.RulesRemoved, s.RulesModified, s.RulesUnchanged,
		s.SwitchesChanged, s.SwitchesSkipped)
}

// count folds one switch's delta toward want into the stats.
func (s *DeltaStats) count(d deploy.SwitchDiff, want deploy.SwitchBundle) {
	if d.Empty() {
		s.SwitchesSkipped++
		s.RulesUnchanged += len(want.Rules)
		return
	}
	a, r, m := d.Counts()
	s.RulesAdded += a
	s.RulesRemoved += r
	s.RulesModified += m
	s.RulesUnchanged += len(want.Rules) - a - m
	s.SwitchesChanged++
}

// NewChurn builds the churn-resilient controller: generic synthesis
// (Algorithms 1+2) under the given policy, kept up to date incrementally.
// Use HandleChurn to feed it events and Reconcile to re-converge the
// fabric after agent-side losses. The initial deployment is a full push.
func NewChurn(g *topology.Graph, policy ELPPolicy, opts ...Option) (*Controller, error) {
	return newController(g, policy, func(c *Controller, set *elp.Set) (*core.System, error) {
		// With a synthesis cache attached, the initial build and every
		// rebuild() fallback go through it (NewResynthFull hook); cached
		// systems are shared read-only and rule-identical to fresh ones.
		var fullSynth func(*topology.Graph, []routing.Path, core.Options) (*core.System, error)
		if c.synthCache != nil {
			fullSynth = synthcache.FullSynth(c.synthCache)
		}
		rs, err := core.NewResynthFull(c.g, set.Paths(), core.Options{}, fullSynth)
		if err != nil {
			return nil, err
		}
		c.resynth, c.tracker = rs, elp.NewTracker(c.g, set)
		return rs.System(), nil
	}, opts)
}

// DeltaLog returns a copy of the per-push delta stats, in push order.
func (c *Controller) DeltaLog() []DeltaStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]DeltaStats(nil), c.deltaLog...)
}

// HandleChurn processes one churn event end to end: update the topology
// and the ELP bookkeeping, re-synthesize incrementally, and push the rule
// deltas. Unlike Handle — which encodes the paper's "failures need no
// rule changes" claim — HandleChurn treats every event as an intent
// change: paths knocked out by a down link or a drain leave the ELP (and
// their rules leave the switches), recovered capacity re-adds them.
//
// Intent always advances, even when the delta push fails: the fabric
// stays consistent on its previous bundle (two-phase rollback), the error
// is returned, and Reconcile() re-drives the fabric toward intent.
func (c *Controller) HandleChurn(ev Event) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.resynth == nil {
		return fmt.Errorf("controller: HandleChurn requires a churn controller (NewChurn)")
	}
	switch ev.Kind {
	case EventLinkDown:
		c.g.FailLink(ev.A, ev.B)
		return c.applyChurn(ev, nil, c.tracker.LinkDown(ev.A, ev.B))
	case EventLinkUp:
		c.g.RestoreLink(ev.A, ev.B)
		return c.applyChurn(ev, c.tracker.LinkUp(ev.A, ev.B), nil)
	case EventSwitchDrain:
		return c.applyChurn(ev, nil, c.tracker.Drain(ev.A))
	case EventSwitchUndrain:
		return c.applyChurn(ev, c.tracker.Undrain(ev.A), nil)
	case EventExpansion:
		set := c.policy(c.g)
		return c.applyChurn(ev, c.tracker.AddPaths(set.Paths()), nil)
	default:
		return fmt.Errorf("controller: unknown churn event kind %q", ev.Kind)
	}
}

// applyChurn re-synthesizes for the ELP delta and pushes the resulting
// rule deltas. Called with c.mu held.
func (c *Controller) applyChurn(ev Event, added, removed []routing.Path) error {
	defer c.tel.StartSpan("deploy/churn").End()
	sys, err := c.resynth.Apply(added, removed)
	if err != nil {
		return fmt.Errorf("controller: incremental re-synthesis failed: %w", err)
	}
	return c.commit(sys, ev.Kind)
}

// pushDelta deploys newBundle by patching only the switches whose intent
// changed (diffs, against the last bundle), two-phase like pushBundle. Deltas are computed against each
// switch's live ACTIVE table, so a switch some earlier reconciliation
// already fixed is skipped as a no-op; an agent without DeltaAgent gets
// wholesale installs of the same switches. The per-switch stats are
// summed in plan order, appended to the DeltaLog and mirrored into the
// audit log and the deploy.delta.* counters. Called with c.mu held.
func (c *Controller) pushDelta(newBundle *deploy.Bundle, diffs map[string]deploy.SwitchDiff, event EventKind) error {
	span := c.tel.StartSpan("deploy/push-delta")
	defer span.End()
	c.tel.Counter("deploy.pushes").Inc()

	stats := DeltaStats{Event: event.String()}
	for sw, sb := range newBundle.Switches {
		if _, ok := diffs[sw]; !ok {
			stats.SwitchesSkipped++
			stats.RulesUnchanged += len(sb.Rules)
		}
	}
	_, hasDelta := c.agent.(DeltaAgent)
	plan := c.plan(keys(diffs), newBundle, hasDelta)
	if !hasDelta {
		stats.FullPushes = len(plan)
		for i := range plan {
			d := diffs[plan[i].sw]
			plan[i].diff = &d
		}
	}
	err := c.push(span, plan, true, OpActivate)
	for i := range plan {
		if d := plan[i].diff; d != nil {
			stats.count(*d, plan[i].want)
		}
	}

	c.deltaLog = append(c.deltaLog, stats)
	c.auditLog = append(c.auditLog, AuditEntry{
		Seq: c.auditSeq, Switch: "*", Op: OpDelta, Attempt: 1, Note: stats.String(),
	})
	c.auditSeq++
	c.tel.Counter("deploy.delta.rules_added").Add(int64(stats.RulesAdded))
	c.tel.Counter("deploy.delta.rules_removed").Add(int64(stats.RulesRemoved))
	c.tel.Counter("deploy.delta.rules_modified").Add(int64(stats.RulesModified))
	c.tel.Counter("deploy.delta.rules_unchanged").Add(int64(stats.RulesUnchanged))
	c.tel.Counter("deploy.delta.switches_changed").Add(int64(stats.SwitchesChanged))
	c.tel.Counter("deploy.delta.switches_skipped").Add(int64(stats.SwitchesSkipped))
	return err
}

// Reconcile drives the fabric back to the deployed intent (c.bundle): it
// re-fetches the active table of every switch that holds or ever held
// rules, computes the delta to intent, and re-issues patch+activate for
// any divergence — up to DeployConfig.ReconcileRounds sweeps. This is the
// convergence path after partial deploy failures, switch reboots, or any
// agent-side state loss.
// Unlike a push, reconciliation activates per switch immediately: the
// fabric is already divergent, so convergence beats atomicity.
//
// It returns how many switches were repaired. A fabric still divergent
// after the round budget is an error. Agents without DeltaAgent support
// fall back to a full forced re-push (Redeploy semantics).
func (c *Controller) Reconcile() (fixed int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.bundle == nil {
		return 0, fmt.Errorf("controller: nothing deployed yet")
	}
	da, hasDelta := c.agent.(DeltaAgent)
	if !hasDelta {
		return 0, c.pushBundle(c.bundle, true)
	}
	defer c.tel.StartSpan("deploy/reconcile").End()
	rounds := c.deployCfg.ReconcileRounds
	if rounds < 1 {
		rounds = 3
	}
	names := keys(c.bundle.Switches)
	for sw := range c.vacated {
		if _, ok := c.bundle.Switches[sw]; !ok {
			names = append(names, sw)
		}
	}

	for round := 1; round <= rounds; round++ {
		c.tel.Counter("deploy.reconcile.rounds").Inc()
		// A switch absent from the bundle wants the empty table.
		plan := c.plan(names, c.bundle, true)
		roundErr := c.push(nil, plan, false, OpActivate)
		dirty := false
		for i := range plan {
			dirty = dirty || plan[i].err != nil || plan[i].staged
			if plan[i].flipped {
				fixed++
				c.tel.Counter("deploy.reconcile.switches_fixed").Inc()
			}
		}
		if !dirty {
			return fixed, nil
		}
		if round == rounds && roundErr != nil {
			return fixed, fmt.Errorf("controller: fabric did not converge after %d reconcile rounds: %w", rounds, roundErr)
		}
	}
	// The round budget is spent; verify the last sweep actually converged.
	for _, sw := range names {
		active, e := da.FetchActive(sw)
		if e != nil {
			return fixed, fmt.Errorf("controller: reconcile verification: %w", e)
		}
		if d := deploy.DeltaFor(active, c.bundle.Switches[sw]); !d.Empty() {
			return fixed, fmt.Errorf("controller: switch %s still diverges from intent after %d reconcile rounds", sw, rounds)
		}
	}
	return fixed, nil
}
