package controller

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/deploy"
	"repro/internal/paper"
	"repro/internal/topology"
)

// The chaos fabric must satisfy the controller's agent contract.
var _ SwitchAgent = (*chaos.Fabric)(nil)

// switchNames returns every switch of the graph by name.
func switchNames(g *topology.Graph) []string {
	var out []string
	for _, sw := range g.Switches() {
		out = append(out, g.Node(sw).Name)
	}
	return out
}

// fabricMatches reports whether every switch's ACTIVE rules equal the
// bundle's (and no switch runs rules the bundle does not have).
func fabricMatches(t *testing.T, f *chaos.Fabric, b *deploy.Bundle, names []string) bool {
	t.Helper()
	live := f.ActiveBundle(b.MaxTag)
	return len(deploy.Diff(live, b)) == 0
}

func testCfg(seed int64) DeployConfig {
	return DeployConfig{
		MaxAttempts: 5,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
		JitterSeed:  seed,
	}
}

func TestDeployThroughFlakyAgentsConverges(t *testing.T) {
	c := paper.Testbed()
	fab := chaos.NewFabric(switchNames(c.Graph))
	// Transient failures and control-channel pathologies on several
	// switches: drops lose requests, long delays apply-but-timeout (the
	// idempotent re-push case), duplicates apply twice.
	fab.Inject("T1", chaos.Fault{Kind: chaos.FaultInstallTransient, Count: 2})
	fab.Inject("L2", chaos.Fault{Kind: chaos.FaultRPCDrop})
	fab.Inject("S1", chaos.Fault{Kind: chaos.FaultRPCDelay, Delay: time.Hour})
	fab.Inject("S2", chaos.Fault{Kind: chaos.FaultRPCDuplicate})

	ctl, err := NewClos(c, 1, WithAgent(fab), WithDeployConfig(testCfg(7)))
	if err != nil {
		t.Fatal(err)
	}
	if !fabricMatches(t, fab, ctl.Bundle(), switchNames(c.Graph)) {
		t.Fatal("fabric active state does not match the deployed bundle")
	}
	cnt := ctl.Counters()
	if cnt["deploy.install.fail"] == 0 && cnt["deploy.verify.fail"] == 0 {
		t.Errorf("expected some recorded failures, counters: %v", cnt)
	}
	if cnt["deploy.rollbacks"] != 0 {
		t.Errorf("transient faults must not trigger rollback: %v", cnt)
	}
}

func TestPartialInstallDetectedAndRepaired(t *testing.T) {
	c := paper.Testbed()
	fab := chaos.NewFabric(switchNames(c.Graph))
	fab.Inject("L1", chaos.Fault{Kind: chaos.FaultInstallPartial, Frac: 0.4})

	ctl, err := NewClos(c, 1, WithAgent(fab), WithDeployConfig(testCfg(7)))
	if err != nil {
		t.Fatal(err)
	}
	if got := ctl.Counters()["deploy.partial_detected"]; got != 1 {
		t.Errorf("partial_detected = %d, want 1", got)
	}
	if !fabricMatches(t, fab, ctl.Bundle(), switchNames(c.Graph)) {
		t.Fatal("partial install survived verification")
	}
	// The audit log must show the failed verify followed by a successful
	// re-push on L1.
	var sawMismatch, sawRepair bool
	for _, e := range ctl.Audit() {
		if e.Switch != "L1" || e.Op != OpVerify {
			continue
		}
		if e.Err != "" && strings.Contains(e.Err, "mismatch") {
			sawMismatch = true
		}
		if sawMismatch && e.Err == "" {
			sawRepair = true
		}
	}
	if !sawMismatch || !sawRepair {
		t.Errorf("audit log missing mismatch/repair sequence: %v", ctl.Audit())
	}
}

// TestActivationFailureRollsBack is the two-phase guarantee: when a
// switch refuses to activate after every retry, the switches that
// already flipped are re-pointed at the previous verified bundle and the
// controller keeps the old deployment — the fabric never keeps running
// a half-deployed rule set.
func TestActivationFailureRollsBack(t *testing.T) {
	c := paper.Testbed()
	fab := chaos.NewFabric(switchNames(c.Graph))
	ctl, err := NewClos(c, 1, WithAgent(fab), WithDeployConfig(testCfg(7)))
	if err != nil {
		t.Fatal(err)
	}
	prev := ctl.Bundle()

	// Expansion will push to (sorted) L5, L6, S1, S2, T5, T6. Arm S2 so
	// its install+verify pass and every activate attempt fails: L5, L6,
	// S1 activate first and must be rolled back.
	if err := c.Expand(1); err != nil {
		t.Fatal(err)
	}
	// The fabric needs agents for the new switches.
	fab2 := chaos.NewFabric(switchNames(c.Graph))
	fab2.Inject("S2",
		chaos.Fault{Kind: chaos.FaultPass}, // install
		chaos.Fault{Kind: chaos.FaultPass}, // verify readback
		chaos.Fault{Kind: chaos.FaultInstallPersistent, Count: 1000})
	ctl2, err := NewClos(c, 1, WithAgent(fab2), WithDeployConfig(testCfg(7)))
	_ = ctl2
	if err == nil {
		t.Fatal("activation failure did not surface")
	}
	if !strings.Contains(err.Error(), "rolled back") {
		t.Fatalf("error does not mention rollback: %v", err)
	}
	// Every switch's active slot must be empty (the pre-push state) —
	// no switch may keep running the new bundle.
	live := fab2.ActiveBundle(prev.MaxTag)
	if len(live.Switches) != 0 {
		t.Fatalf("switches still running the aborted bundle: %v", live.Switches)
	}
}

// TestExpansionActivationFailureKeepsPreviousBundle drives the same
// rollback through an established controller: the first deployment
// sticks, the expansion push fails at activation, and the fabric ends up
// running exactly the previous verified bundle.
func TestExpansionActivationFailureKeepsPreviousBundle(t *testing.T) {
	c := paper.Testbed()
	names := switchNames(c.Graph)
	fab := chaos.NewFabric(append(names, "T5", "T6", "L5", "L6"))
	ctl, err := NewClos(c, 1, WithAgent(fab), WithDeployConfig(testCfg(7)))
	if err != nil {
		t.Fatal(err)
	}
	prev := ctl.Bundle()

	if err := c.Expand(1); err != nil {
		t.Fatal(err)
	}
	fab.Inject("S2",
		chaos.Fault{Kind: chaos.FaultPass},
		chaos.Fault{Kind: chaos.FaultPass},
		chaos.Fault{Kind: chaos.FaultInstallPersistent, Count: 1000})
	if err := ctl.Handle(Event{Kind: EventExpansion}); err == nil {
		t.Fatal("expansion push should have failed")
	}
	if ctl.Bundle() != prev {
		t.Fatal("controller advanced its bundle past a failed push")
	}
	if len(ctl.Diffs()) != 0 {
		t.Fatal("failed push recorded a diff")
	}
	if !fabricMatches(t, fab, prev, names) {
		t.Fatal("fabric is not running the previous verified bundle after rollback")
	}
	if got := ctl.Counters()["deploy.rollbacks"]; got != 1 {
		t.Errorf("rollbacks = %d, want 1", got)
	}
}

// TestAuditDeterministic is the determinism contract: same fault
// schedule + same jitter seed => identical audit log, including the
// backoff timeline.
func TestAuditDeterministic(t *testing.T) {
	run := func() []AuditEntry {
		c := paper.Testbed()
		fab := chaos.NewFabric(switchNames(c.Graph))
		fab.Inject("T2", chaos.Fault{Kind: chaos.FaultInstallTransient, Count: 3})
		fab.Inject("L4", chaos.Fault{Kind: chaos.FaultInstallPartial, Frac: 0.5})
		ctl, err := NewClos(c, 1, WithAgent(fab), WithDeployConfig(testCfg(42)))
		if err != nil {
			t.Fatal(err)
		}
		return ctl.Audit()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("audit logs differ across identical runs")
	}
	var backoffs int
	for _, e := range a {
		if e.Backoff > 0 {
			backoffs++
		}
	}
	if backoffs == 0 {
		t.Fatal("no backoff recorded for a faulty run")
	}
}

// TestRedeployAfterAgentReboot: a rebooted switch comes back with no
// rules, and Reconcile re-drives exactly that switch from readback.
func TestRedeployAfterAgentReboot(t *testing.T) {
	c := paper.Testbed()
	fab := chaos.NewFabric(switchNames(c.Graph))
	ctl, err := NewClos(c, 1, WithAgent(fab), WithDeployConfig(testCfg(7)))
	if err != nil {
		t.Fatal(err)
	}
	fab.Reboot("T3")
	if len(fab.ActiveBundle(0).Switches["T3"].Rules) != 0 {
		t.Fatal("reboot did not wipe agent state")
	}
	fixed, err := ctl.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if fixed != 1 {
		t.Errorf("Reconcile fixed %d switches, want 1 (T3)", fixed)
	}
	if !fabricMatches(t, fab, ctl.Bundle(), switchNames(c.Graph)) {
		t.Fatal("reconcile did not restore the fabric")
	}
}

// TestGaveUpStagingLeavesActiveUntouched: a switch that cannot even
// stage aborts the push in phase 1, before any activation — the live
// fabric keeps the previous bundle with zero rollback work.
func TestGaveUpStagingLeavesActiveUntouched(t *testing.T) {
	c := paper.Testbed()
	fab := chaos.NewFabric(switchNames(c.Graph))
	fab.Inject("L1", chaos.Fault{Kind: chaos.FaultInstallPersistent, Count: 1000})
	_, err := NewClos(c, 1, WithAgent(fab), WithDeployConfig(testCfg(7)))
	if err == nil {
		t.Fatal("persistent staging failure did not surface")
	}
	if live := fab.ActiveBundle(2); len(live.Switches) != 0 {
		t.Fatal("staging-phase abort still activated switches")
	}
}

// TestAccessorsRaceFree exercises the mutex-guarded accessors against
// concurrent event handling; `go test -race` is the assertion.
func TestAccessorsRaceFree(t *testing.T) {
	c := paper.Testbed()
	ctl, err := NewClos(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := c.Graph
	a, b := g.MustLookup("L1"), g.MustLookup("T1")
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			ev := Event{Kind: EventLinkDown, A: a, B: b}
			if i%2 == 1 {
				ev.Kind = EventLinkUp
			}
			if err := ctl.Handle(ev); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = ctl.Diffs()
			_ = ctl.FailureCount()
			_ = ctl.Audit()
			_ = ctl.Counters()
		}
	}()
	wg.Wait()
	if ctl.FailureCount() != 200 {
		t.Errorf("FailureCount = %d", ctl.FailureCount())
	}
}
