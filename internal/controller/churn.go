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
// intent changes (switch drains, pod adds) re-synthesize incrementally
// (core.Resynth + elp.Tracker) and deploy per-switch rule *deltas*
// computed against each switch's live active table, instead of re-running
// the full pipeline and re-pushing whole bundles. Link flaps are not
// intent changes and push nothing here either (Handle). A reconciliation
// pass re-fetches live state and re-issues deltas until the fabric
// matches intent, so a switch that reboots mid-churn converges instead of
// wedging.

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
// Use Handle to feed it events and Reconcile to re-converge the fabric
// after agent-side losses. The initial deployment is a full push.
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

// HandleChurn is Handle.
//
// Deprecated: use Handle, the one event entry of every controller.
func (c *Controller) HandleChurn(ev Event) error { return c.Handle(ev) }

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
// changed (diffs, against the last bundle), two-phase like pushBundle.
// Deltas are computed against each switch's live ACTIVE table, so a
// switch some earlier reconciliation already fixed is skipped as a no-op.
// The per-switch stats are summed in plan order, appended to the DeltaLog
// and mirrored into the audit log and the deploy.delta.* counters. Called
// with c.mu held.
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
	plan := c.plan(keys(diffs), newBundle, true)
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

// maxReconcileRounds bounds how many fetch-diff-patch sweeps Reconcile makes
// before declaring the fabric divergent.
const maxReconcileRounds = 3

// Reconcile drives the fabric back to the deployed intent (c.bundle): it
// re-fetches the active table of every switch that holds or ever held
// rules, computes the delta to intent, and re-issues patch+activate for
// any divergence — up to maxReconcileRounds sweeps. This is the
// convergence path after partial deploy failures, switch reboots, or any
// agent-side state loss.
// Unlike a push, reconciliation activates per switch immediately: the
// fabric is already divergent, so convergence beats atomicity.
//
// It returns how many switches were repaired. A fabric still divergent
// after the round budget is an error.
func (c *Controller) Reconcile() (fixed int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.bundle == nil {
		return 0, fmt.Errorf("controller: nothing deployed yet")
	}
	defer c.tel.StartSpan("deploy/reconcile").End()
	names := keys(c.bundle.Switches)
	for sw := range c.vacated {
		if _, ok := c.bundle.Switches[sw]; !ok {
			names = append(names, sw)
		}
	}

	for round := 1; round <= maxReconcileRounds; round++ {
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
		if round == maxReconcileRounds && roundErr != nil {
			return fixed, fmt.Errorf("controller: fabric did not converge after %d reconcile rounds: %w", maxReconcileRounds, roundErr)
		}
	}
	// The round budget is spent; verify the last sweep actually converged.
	for _, sw := range names {
		active, e := c.agent.FetchActive(sw)
		if e != nil {
			return fixed, fmt.Errorf("controller: reconcile verification: %w", e)
		}
		if d := deploy.DeltaFor(active, c.bundle.Switches[sw]); !d.Empty() {
			return fixed, fmt.Errorf("controller: switch %s still diverges from intent after %d reconcile rounds", sw, maxReconcileRounds)
		}
	}
	return fixed, nil
}
