package controller

import (
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/deploy"
	"repro/internal/paper"
	"repro/internal/topology"
)

// newChurnTestbed builds the paper testbed with a chaos fabric and a
// churn controller over it (k=1 bounce policy, generic synthesis).
func newChurnTestbed(t *testing.T, seed int64) (*topology.Clos, *chaos.Fabric, *Controller) {
	t.Helper()
	c := paper.Testbed()
	fab := chaos.NewFabric(switchNames(c.Graph))
	ctl, err := NewChurn(c.Graph,
		KBouncePolicy(func() []topology.NodeID { return c.ToRs }, 1),
		WithAgent(fab), WithDeployConfig(testCfg(seed)))
	if err != nil {
		t.Fatal(err)
	}
	if !fabricMatches(t, fab, ctl.Bundle(), switchNames(c.Graph)) {
		t.Fatal("initial churn deployment does not match the fabric")
	}
	return c, fab, ctl
}

// TestChurnDrainDeltas: a leaf drain removes the rules its paths needed,
// the undrain restores them, the fabric tracks intent through both, and
// the delta log records real per-event rule churn.
func TestChurnDrainDeltas(t *testing.T) {
	c, fab, ctl := newChurnTestbed(t, 7)
	g := c.Graph
	initial := ctl.Bundle()

	l1 := g.MustLookup("L1")
	if err := ctl.Handle(Event{Kind: EventSwitchDrain, A: l1}); err != nil {
		t.Fatal(err)
	}
	if !fabricMatches(t, fab, ctl.Bundle(), switchNames(g)) {
		t.Fatal("fabric diverged after drain")
	}
	if err := ctl.Handle(Event{Kind: EventSwitchUndrain, A: l1}); err != nil {
		t.Fatal(err)
	}
	if !fabricMatches(t, fab, ctl.Bundle(), switchNames(g)) {
		t.Fatal("fabric diverged after undrain")
	}
	// The undrain restores the exact pre-churn deployment.
	if d := deploy.Diff(initial, ctl.Bundle()); len(d) != 0 {
		t.Fatalf("drain+undrain did not restore the original bundle: %v", d)
	}

	log := ctl.DeltaLog()
	if len(log) != 2 {
		t.Fatalf("delta log has %d entries, want 2: %v", len(log), log)
	}
	drain, undrain := log[0], log[1]
	if drain.Event != "switch-drain" || undrain.Event != "switch-undrain" {
		t.Fatalf("delta log events = %q, %q", drain.Event, undrain.Event)
	}
	if drain.RulesRemoved == 0 || undrain.RulesAdded == 0 {
		t.Errorf("expected rule churn, got drain=%+v undrain=%+v", drain, undrain)
	}
	if drain.SwitchesSkipped == 0 {
		t.Errorf("no switch skipped as no-op on a single-leaf drain: %+v", drain)
	}

	// The per-push summary also lands in the audit log and the counters.
	var sawDelta bool
	for _, e := range ctl.Audit() {
		if e.Op == OpDelta && strings.Contains(e.Note, "switch-drain") {
			sawDelta = true
		}
	}
	if !sawDelta {
		t.Error("audit log has no OpDelta entry for the drain push")
	}
	cnt := ctl.Counters()
	if cnt["deploy.delta.rules_removed"] == 0 || cnt["deploy.delta.switches_skipped"] == 0 {
		t.Errorf("delta counters not exported: %v", cnt)
	}
}

// TestChurnDrainUndrainRoundTrip: draining a spine pulls its paths (and
// rules) out, undraining restores the exact original deployment.
func TestChurnDrainUndrainRoundTrip(t *testing.T) {
	c, fab, ctl := newChurnTestbed(t, 11)
	g := c.Graph
	initial := ctl.Bundle()
	s1 := g.MustLookup("S1")

	if err := ctl.Handle(Event{Kind: EventSwitchDrain, A: s1}); err != nil {
		t.Fatal(err)
	}
	if !fabricMatches(t, fab, ctl.Bundle(), switchNames(g)) {
		t.Fatal("fabric diverged after drain")
	}
	// The drained spine must hold no rules at all.
	if got := len(fab.ActiveBundle(0).Switches["S1"].Rules); got != 0 {
		t.Fatalf("drained spine still runs %d rules", got)
	}
	if err := ctl.Handle(Event{Kind: EventSwitchUndrain, A: s1}); err != nil {
		t.Fatal(err)
	}
	if d := deploy.Diff(initial, ctl.Bundle()); len(d) != 0 {
		t.Fatalf("drain+undrain did not restore the original bundle: %v", d)
	}
	if !fabricMatches(t, fab, ctl.Bundle(), switchNames(g)) {
		t.Fatal("fabric diverged after undrain")
	}
}

// TestChurnExpansionDeltas: a pod expansion through the churn path adds
// the new switches' rules while old switches that need no changes are
// skipped as no-ops.
func TestChurnExpansionDeltas(t *testing.T) {
	c, fab, ctl := newChurnTestbed(t, 13)
	if err := c.Expand(1); err != nil {
		t.Fatal(err)
	}
	fab.Add(switchNames(c.Graph)...)
	if err := ctl.Handle(Event{Kind: EventExpansion}); err != nil {
		t.Fatal(err)
	}
	if !fabricMatches(t, fab, ctl.Bundle(), switchNames(c.Graph)) {
		t.Fatal("fabric diverged after expansion")
	}
	log := ctl.DeltaLog()
	last := log[len(log)-1]
	if last.Event != "expansion" || last.RulesAdded == 0 {
		t.Fatalf("expansion stats = %+v", last)
	}
	if last.SwitchesSkipped == 0 {
		t.Errorf("expansion should skip unchanged old switches as no-ops: %+v", last)
	}
}

// TestChurnRebootMidActivateReconverges is the rollback-convergence
// guarantee end to end: a switch reboots exactly at the activate step of
// a delta push, the two-phase protocol rolls the already-flipped
// switches back (fabric consistent on the OLD bundle), intent still
// advances, and Reconcile() then drives every switch — including the
// rebooted, now-empty one — to the new intent.
func TestChurnRebootMidActivateReconverges(t *testing.T) {
	c, fab, ctl := newChurnTestbed(t, 17)
	g := c.Graph
	prev := ctl.Bundle()

	// Delta push for a drain touches S1 (all rules removed) and the
	// leaves (bounce entries via S1 removed). Arm S1 to survive
	// fetch-active, patch and verify, then reboot on its first activate:
	// the leaves (sorted before S1) have already flipped and must roll
	// back; S1 comes up empty.
	fab.Inject("S1",
		chaos.Fault{Kind: chaos.FaultPass}, // fetch-active
		chaos.Fault{Kind: chaos.FaultPass}, // patch
		chaos.Fault{Kind: chaos.FaultPass}, // staged readback
		chaos.Fault{Kind: chaos.FaultSwitchReboot})

	err := ctl.Handle(Event{Kind: EventSwitchDrain, A: g.MustLookup("S1")})
	if err == nil {
		t.Fatal("activation failure did not surface")
	}
	if !strings.Contains(err.Error(), "rolled back") {
		t.Fatalf("error does not mention rollback: %v", err)
	}
	// Intent advanced past the failed push (Reconcile's job to deliver)...
	intent := ctl.Bundle()
	if len(deploy.Diff(prev, intent)) == 0 {
		t.Fatal("intent did not advance")
	}
	// ...so the fabric must currently diverge from it: the non-rebooted
	// switches rolled back to the previous bundle, and S1 is wiped.
	if fabricMatches(t, fab, intent, switchNames(g)) {
		t.Fatal("fabric already matches intent; reboot fault did not bite")
	}
	if got := len(fab.ActiveBundle(0).Switches["S1"].Rules); got != 0 {
		t.Fatalf("rebooted switch still runs %d rules", got)
	}

	fixed, err := ctl.Reconcile()
	if err != nil {
		t.Fatalf("reconcile: %v", err)
	}
	if fixed == 0 {
		t.Fatal("reconcile repaired nothing")
	}
	if !fabricMatches(t, fab, ctl.Bundle(), switchNames(g)) {
		t.Fatal("fabric does not match intent after reconciliation")
	}
	cnt := ctl.Counters()
	if cnt["deploy.rollbacks"] != 1 {
		t.Errorf("rollbacks = %d, want 1", cnt["deploy.rollbacks"])
	}
	if cnt["deploy.reconcile.switches_fixed"] == 0 {
		t.Errorf("reconcile.switches_fixed = 0, want > 0; counters: %v", cnt)
	}

	// A clean fabric reconciles to a no-op.
	fixed, err = ctl.Reconcile()
	if err != nil || fixed != 0 {
		t.Fatalf("idle reconcile = (%d, %v), want (0, nil)", fixed, err)
	}
}

// TestChurnRebootThenReconcile: a plain out-of-band reboot (no push in
// flight) is repaired by reconciliation alone — the delta path fetches
// the empty active table and re-issues the full switch delta.
func TestChurnRebootThenReconcile(t *testing.T) {
	c, fab, ctl := newChurnTestbed(t, 19)
	fab.Reboot("T1")
	if len(fab.ActiveBundle(0).Switches["T1"].Rules) != 0 {
		t.Fatal("reboot did not wipe agent state")
	}
	fixed, err := ctl.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if fixed != 1 {
		t.Fatalf("fixed = %d, want 1 (only T1 was wiped)", fixed)
	}
	if !fabricMatches(t, fab, ctl.Bundle(), switchNames(c.Graph)) {
		t.Fatal("fabric does not match intent after reconciliation")
	}
}

// TestChurnReconcileWithFlakyChannel: reconciliation retries through
// control-channel faults and still converges within its round budget.
func TestChurnReconcileWithFlakyChannel(t *testing.T) {
	c, fab, ctl := newChurnTestbed(t, 23)
	fab.Reboot("L2")
	fab.Inject("L2",
		chaos.Fault{Kind: chaos.FaultRPCDrop},                    // fetch-active attempt 1 lost
		chaos.Fault{Kind: chaos.FaultPass},                       // fetch-active attempt 2
		chaos.Fault{Kind: chaos.FaultInstallTransient, Count: 1}, // patch attempt 1 busy
		chaos.Fault{Kind: chaos.FaultInstallPartial, Frac: 0.5},  // patch attempt 2 lands half
		chaos.Fault{Kind: chaos.FaultPass})                       // readback exposes it; retry clean
	fixed, err := ctl.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if fixed != 1 {
		t.Fatalf("fixed = %d, want 1", fixed)
	}
	if !fabricMatches(t, fab, ctl.Bundle(), switchNames(c.Graph)) {
		t.Fatal("fabric does not match intent after flaky reconciliation")
	}
	if ctl.Counters()["deploy.partial_detected"] == 0 {
		t.Error("partial patch was not detected by the staged readback")
	}
}

// TestClassicControllerRejectsDrain: a drain is an intent change only the
// churn controller can express; the classic controllers refuse it and
// name the constructor that can.
func TestClassicControllerRejectsDrain(t *testing.T) {
	for _, row := range constructors[:2] {
		t.Run(row.name, func(t *testing.T) {
			c := paper.Testbed()
			ctl, err := row.build(c)
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range []EventKind{EventSwitchDrain, EventSwitchUndrain} {
				err := ctl.Handle(Event{Kind: kind, A: c.Graph.MustLookup("S1")})
				if err == nil || !strings.Contains(err.Error(), "NewChurn") || strings.Contains(err.Error(), "unknown") {
					t.Errorf("%s: err = %v, want the NewChurn guidance", kind, err)
				}
			}
			if len(ctl.Diffs()) != 0 {
				t.Error("a refused drain pushed")
			}
		})
	}
}
