package controller

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/chaos"
	"repro/internal/deploy"
	"repro/internal/paper"
	"repro/internal/topology"
)

func parallelCfg(seed int64, workers int) DeployConfig {
	cfg := testCfg(seed)
	cfg.Parallel = workers
	return cfg
}

// pushOutcome is everything a push leaves behind that an operator can
// observe: the controller's logs and counters, the errors it returned,
// and what the switches actually run.
type pushOutcome struct {
	Audit    []AuditEntry
	Counters map[string]int64
	Deltas   []DeltaStats
	Errs     []string
	Active   *deploy.Bundle
}

func outcomeOf(fab *chaos.Fabric, ctl *Controller, errs []string) pushOutcome {
	return pushOutcome{ctl.Audit(), ctl.Counters(), ctl.DeltaLog(), errs, fab.ActiveBundle(ctl.Bundle().MaxTag)}
}

// persistent makes a switch refuse exactly one retry budget's worth of
// RPCs (testCfg allows 5 tries), so one phase gives up and the next push
// finds it healthy again.
var persistent = chaos.Fault{Kind: chaos.FaultInstallPersistent, Count: 5}

// passes lets a switch's next n RPCs through, so a later fault lands on a
// chosen one.
func passes(n int) []chaos.Fault {
	out := make([]chaos.Fault, n, n+1)
	for i := range out {
		out[i] = chaos.Fault{Kind: chaos.FaultPass}
	}
	return out
}

// giveUpOnFlip lets a switch's n staging RPCs through and then refuses a
// whole retry budget of activations.
func giveUpOnFlip(n int) []chaos.Fault { return append(passes(n), persistent) }

// fullPushes: a Clos bring-up through transient and partial installs, an
// expansion whose staging gives up, one whose activation gives up (with a
// busy switch on the rollback path), and the clean retry.
func fullPushes(t *testing.T, cfg DeployConfig) pushOutcome {
	c := paper.Testbed()
	fab := chaos.NewFabric(append(switchNames(c.Graph), "T5", "T6", "L5", "L6"))
	fab.Inject("T1", chaos.Fault{Kind: chaos.FaultInstallTransient, Count: 2})
	fab.Inject("T2", chaos.Fault{Kind: chaos.FaultInstallTransient, Count: 3})
	fab.Inject("L2", chaos.Fault{Kind: chaos.FaultRPCDrop})
	fab.Inject("L4", chaos.Fault{Kind: chaos.FaultInstallPartial, Frac: 0.5})
	ctl, err := NewClos(c, 1, WithAgent(fab), WithDeployConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if !fabricMatches(t, fab, ctl.Bundle(), nil) {
		t.Fatal("bring-up through transient faults left the fabric diverged from its bundle")
	}
	if got := ctl.Counters()["deploy.rollbacks"]; got != 0 {
		t.Errorf("bring-up rolled back %d times on transient faults", got)
	}
	prev := ctl.Bundle()

	if err := c.Expand(1); err != nil {
		t.Fatal(err)
	}
	var errs []string
	expand := func() {
		err := ctl.Handle(Event{Kind: EventExpansion})
		errs = append(errs, fmt.Sprint(err))
	}
	fab.Inject("L5", persistent)
	expand()
	if !fabricMatches(t, fab, prev, nil) {
		t.Fatal("staging give-up touched the active fabric")
	}
	fab.Inject("S2", giveUpOnFlip(2)...)
	fab.Inject("S1", append(passes(3), chaos.Fault{Kind: chaos.FaultInstallTransient, Count: 1})...) // busy when rolled back
	expand()
	if !fabricMatches(t, fab, prev, nil) {
		t.Fatal("activation give-up did not roll the fabric back")
	}
	expand()
	if errs[0] == "<nil>" || !strings.Contains(errs[1], "rolled back") || errs[2] != "<nil>" {
		t.Fatalf("expansion errors = %q", errs)
	}
	if ctl.Bundle() == prev || !fabricMatches(t, fab, ctl.Bundle(), nil) {
		t.Fatal("clean retry did not deploy the expansion")
	}
	return outcomeOf(fab, ctl, errs)
}

// churnTestbed is newChurnTestbed under a given deploy config.
func churnTestbed(t *testing.T, cfg DeployConfig) (*topology.Clos, *chaos.Fabric, *Controller) {
	c := paper.Testbed()
	fab := chaos.NewFabric(switchNames(c.Graph))
	ctl, err := NewChurn(c.Graph, KBouncePolicy(func() []topology.NodeID { return c.ToRs }, 1),
		WithAgent(fab), WithDeployConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return c, fab, ctl
}

// churnPushes: a generated churn sequence through the delta path, with
// every fault kind injected on the leaves (which nearly every push
// patches), then a reconcile to deliver the intent the failed pushes
// left behind. Faults are keyed by push, not by event: link events push
// nothing, so a fault armed before one waits for the next push.
func churnPushes(t *testing.T, cfg DeployConfig) pushOutcome {
	c, fab, ctl := churnTestbed(t, cfg)
	g := c.Graph
	var links [][2]string
	for i := 0; i < g.NumLinks(); i++ {
		if l := g.Link(topology.LinkID(i)); g.Node(l.A).Kind.IsSwitch() && g.Node(l.B).Kind.IsSwitch() {
			links = append(links, [2]string{g.Node(l.A).Name, g.Node(l.B).Name})
		}
	}
	faults := map[int][]chaos.Fault{
		1: {{Kind: chaos.FaultInstallTransient, Count: 2}},
		3: {{Kind: chaos.FaultPass}, {Kind: chaos.FaultInstallPartial, Frac: 0.5}},
		5: {persistent},
		7: giveUpOnFlip(3),
	}
	var errs []string
	armed := -1
	for _, ev := range chaos.GenerateChurn(chaos.ChurnConfig{Links: links, Switches: switchNames(g), Events: 16}, 5) {
		if push := len(ctl.DeltaLog()); push != armed {
			armed = push
			for _, leaf := range []string{"L1", "L2", "L3", "L4"} {
				fab.Inject(leaf, faults[push]...)
			}
		}
		var cev Event
		switch ev.Kind {
		case chaos.ChurnLinkDown:
			cev = Event{Kind: EventLinkDown, A: g.MustLookup(ev.A), B: g.MustLookup(ev.B)}
		case chaos.ChurnLinkUp:
			cev = Event{Kind: EventLinkUp, A: g.MustLookup(ev.A), B: g.MustLookup(ev.B)}
		case chaos.ChurnDrain:
			cev = Event{Kind: EventSwitchDrain, A: g.MustLookup(ev.Switch)}
		case chaos.ChurnUndrain:
			cev = Event{Kind: EventSwitchUndrain, A: g.MustLookup(ev.Switch)}
		}
		errs = append(errs, fmt.Sprint(ctl.Handle(cev)))
	}
	if _, err := ctl.Reconcile(); err != nil {
		t.Fatal(err)
	}
	if !fabricMatches(t, fab, ctl.Bundle(), nil) {
		t.Fatal("fabric does not match intent after the churn sequence and a reconcile")
	}
	return outcomeOf(fab, ctl, errs)
}

// reconcileRounds: three switches reboot; the first round retries through
// a flaky channel on one, gives up reading the second and gives up
// activating the third, and the second round finishes the job.
func reconcileRounds(t *testing.T, cfg DeployConfig) pushOutcome {
	c, fab, ctl := churnTestbed(t, cfg)
	for _, sw := range []string{"L2", "T1", "S1"} {
		fab.Reboot(sw)
	}
	fab.Inject("L2",
		chaos.Fault{Kind: chaos.FaultRPCDrop},
		chaos.Fault{Kind: chaos.FaultPass},
		chaos.Fault{Kind: chaos.FaultInstallTransient, Count: 1},
		chaos.Fault{Kind: chaos.FaultInstallPartial, Frac: 0.5})
	fab.Inject("T1", persistent)
	fab.Inject("S1", giveUpOnFlip(3)...)
	fixed, err := ctl.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if fixed != 3 {
		t.Errorf("fixed = %d, want 3", fixed)
	}
	if !fabricMatches(t, fab, ctl.Bundle(), switchNames(c.Graph)) {
		t.Fatal("fabric does not match intent after reconciliation")
	}
	return outcomeOf(fab, ctl, nil)
}

// TestPushParIndependent: Parallel changes how long a push takes and
// nothing else. Every kind of push, under a fault schedule that makes it
// retry, catch a partial write, give up staging and give up activating,
// must leave the same audit log, counters, delta log and fabric on one
// worker as on eight.
func TestPushParIndependent(t *testing.T) {
	for _, row := range []struct {
		name string
		run  func(*testing.T, DeployConfig) pushOutcome
	}{
		{"full", fullPushes},
		{"churn", churnPushes},
		{"reconcile", reconcileRounds},
	} {
		t.Run(row.name, func(t *testing.T) {
			one := row.run(t, parallelCfg(42, 1))
			many := row.run(t, parallelCfg(42, 8))
			if !reflect.DeepEqual(one, many) {
				for i := range one.Audit {
					if i >= len(many.Audit) || one.Audit[i] != many.Audit[i] {
						t.Logf("first audit difference at #%d: %v", i, one.Audit[i])
						break
					}
				}
				t.Fatalf("outcome depends on the worker count:\n 1: %d audit entries, counters %v, errs %q\n 8: %d audit entries, counters %v, errs %q",
					len(one.Audit), one.Counters, one.Errs, len(many.Audit), many.Counters, many.Errs)
			}
			for i, e := range one.Audit {
				if e.Seq != i {
					t.Fatalf("audit seq not dense: entry %d has seq %d", i, e.Seq)
				}
			}
			// The schedule must have bitten, or the comparison is vacuous.
			for _, name := range []string{"deploy.backoff_ns", "deploy.partial_detected", "deploy.gave_up", "deploy.activate.fail"} {
				if one.Counters[name] == 0 {
					t.Errorf("%s = 0: the fault schedule did not exercise it; counters %v", name, one.Counters)
				}
			}
			if row.name != "reconcile" { // a reconcile round neither aborts nor rolls back
				for _, name := range []string{"deploy.aborted_staging", "deploy.rollbacks"} {
					if one.Counters[name] == 0 {
						t.Errorf("%s = 0: the fault schedule did not exercise it; counters %v", name, one.Counters)
					}
				}
			}
		})
	}
}

// TestParallelActivationFailureRollsBack: the two-phase guarantee holds
// under fan-out — an exhausted activation rolls every flipped switch
// back to the previous verified bundle.
func TestParallelActivationFailureRollsBack(t *testing.T) {
	c := paper.Testbed()
	names := switchNames(c.Graph)
	fab := chaos.NewFabric(append(names, "T5", "T6", "L5", "L6"))
	ctl, err := NewClos(c, 1, WithAgent(fab), WithDeployConfig(parallelCfg(7, 4)))
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
	err = ctl.Handle(Event{Kind: EventExpansion})
	if err == nil {
		t.Fatal("expansion push should have failed")
	}
	if !strings.Contains(err.Error(), "rolled back") {
		t.Fatalf("error does not mention rollback: %v", err)
	}
	if ctl.Bundle() != prev {
		t.Fatal("controller advanced its bundle past a failed push")
	}
	if !fabricMatches(t, fab, prev, names) {
		t.Fatal("fabric is not running the previous verified bundle after rollback")
	}
	if got := ctl.Counters()["deploy.rollbacks"]; got != 1 {
		t.Errorf("rollbacks = %d, want 1", got)
	}
}

// TestParallelStagingAbortLeavesActiveUntouched: a switch that cannot
// stage aborts the fan-out push in phase 1 — no switch activates.
func TestParallelStagingAbortLeavesActiveUntouched(t *testing.T) {
	c := paper.Testbed()
	fab := chaos.NewFabric(switchNames(c.Graph))
	fab.Inject("L1", chaos.Fault{Kind: chaos.FaultInstallPersistent, Count: 1000})
	_, err := NewClos(c, 1, WithAgent(fab), WithDeployConfig(parallelCfg(7, 8)))
	if err == nil {
		t.Fatal("persistent staging failure did not surface")
	}
	if live := fab.ActiveBundle(2); len(live.Switches) != 0 {
		t.Fatal("staging-phase abort still activated switches")
	}
}

// startSignal wraps an agent and reports the first Install, so a test can
// act while a push is provably in flight.
type startSignal struct {
	SwitchAgent
	once    sync.Once
	started chan struct{}
}

func (a *startSignal) Install(sw string, b deploy.SwitchBundle) error {
	a.once.Do(func() { close(a.started) })
	return a.SwitchAgent.Install(sw, b)
}

// TestMarshalDuringParallelPush: an operator (or the ops endpoint)
// serializing the bundle while the parallel workers and the agents are
// reading its rule slices must not write to them. The tables are built
// out of canonical order, the one case where Marshal has sorting to do;
// run under -race this fails if it sorts in place.
func TestMarshalDuringParallelPush(t *testing.T) {
	const switches, rules = 48, 120
	names := make([]string, switches)
	for i := range names {
		names[i] = fmt.Sprintf("sw%02d", i)
	}
	build := func() *deploy.Bundle {
		b := &deploy.Bundle{MaxTag: 3, Switches: make(map[string]deploy.SwitchBundle)}
		for i, name := range names {
			rs := make([]deploy.RuleJSON, rules)
			for j := range rs {
				rs[j] = deploy.RuleJSON{Tag: 1 + (rules-j)%3, In: (rules - j) / 3, Out: i, NewTag: 3}
			}
			b.Switches[name] = deploy.SwitchBundle{Rules: rs}
		}
		return b
	}
	// The reference bytes come from a twin, so the pushed bundle reaches
	// the workers never having been marshalled.
	want, err := build().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b := build()

	c := paper.Testbed()
	fab := chaos.NewFabric(append(switchNames(c.Graph), names...))
	ctl, err := NewClos(c, 1, WithAgent(fab), WithDeployConfig(parallelCfg(3, 8)))
	if err != nil {
		t.Fatal(err)
	}
	agent := &startSignal{SwitchAgent: fab, started: make(chan struct{})}
	ctl.agent = agent

	// As on a first push, every switch of b is pushed.
	ctl.bundle = nil
	done := make(chan error, 1)
	go func() {
		ctl.mu.Lock()
		defer ctl.mu.Unlock()
		done <- ctl.pushBundle(b)
	}()
	<-agent.started
	for pushing := true; pushing; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			pushing = false
		default:
		}
		got, err := b.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatal("Marshal output changed while a push was in flight")
		}
	}
}
