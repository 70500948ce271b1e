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
)

func parallelCfg(seed int64, workers int) DeployConfig {
	cfg := testCfg(seed)
	cfg.Parallel = workers
	return cfg
}

// TestParallelPushMatchesSerial: the fan-out path must land the fabric in
// exactly the state the serial path does — same bundle on every switch,
// no rollbacks — including through transient faults.
func TestParallelPushMatchesSerial(t *testing.T) {
	deployWith := func(cfg DeployConfig) (*chaos.Fabric, *Controller) {
		c := paper.Testbed()
		fab := chaos.NewFabric(switchNames(c.Graph))
		fab.Inject("T1", chaos.Fault{Kind: chaos.FaultInstallTransient, Count: 2})
		fab.Inject("L2", chaos.Fault{Kind: chaos.FaultRPCDrop})
		ctl, err := NewClos(c, 1, WithAgent(fab), WithDeployConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		return fab, ctl
	}
	serialFab, serialCtl := deployWith(testCfg(7))
	parFab, parCtl := deployWith(parallelCfg(7, 8))

	if !fabricMatches(t, parFab, parCtl.Bundle(), nil) {
		t.Fatal("parallel push left the fabric diverged from its bundle")
	}
	serialLive := serialFab.ActiveBundle(serialCtl.Bundle().MaxTag)
	if !fabricMatches(t, parFab, serialLive, nil) {
		t.Fatal("parallel push landed a different fabric state than serial")
	}
	if got := parCtl.Counters()["deploy.rollbacks"]; got != 0 {
		t.Errorf("parallel push rolled back %d times on transient faults", got)
	}
}

// TestParallelAuditDeterministic: per-switch jitter streams and the
// group-then-name merge order make the audit log reproducible no matter
// how the worker goroutines interleave.
func TestParallelAuditDeterministic(t *testing.T) {
	run := func() []AuditEntry {
		c := paper.Testbed()
		fab := chaos.NewFabric(switchNames(c.Graph))
		fab.Inject("T2", chaos.Fault{Kind: chaos.FaultInstallTransient, Count: 3})
		fab.Inject("L4", chaos.Fault{Kind: chaos.FaultInstallPartial, Frac: 0.5})
		ctl, err := NewClos(c, 1, WithAgent(fab), WithDeployConfig(parallelCfg(42, 6)))
		if err != nil {
			t.Fatal(err)
		}
		return ctl.Audit()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("parallel audit logs differ across identical runs")
	}
	var backoffs int
	for _, e := range a {
		if e.Backoff > 0 {
			backoffs++
		}
	}
	if backoffs == 0 {
		t.Fatal("no backoff recorded for a faulty parallel run")
	}
	// Sequence numbers must be dense after the merge.
	for i, e := range a {
		if e.Seq != i {
			t.Fatalf("audit seq not dense after merge: entry %d has seq %d", i, e.Seq)
		}
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

	done := make(chan error, 1)
	go func() {
		ctl.mu.Lock()
		defer ctl.mu.Unlock()
		done <- ctl.pushBundle(b, true)
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
