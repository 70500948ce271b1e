package chaos

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/deploy"
)

func testConfig() Config {
	return Config{
		Duration:      40 * time.Millisecond,
		Links:         [][2]string{{"L1", "T1"}, {"L3", "T4"}, {"L2", "T2"}},
		Switches:      []string{"T1", "T2", "L1", "L3", "S1"},
		LinkFlaps:     4,
		Reboots:       2,
		InstallFaults: 3,
		RPCFaults:     3,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(testConfig(), 11)
	b := Generate(testConfig(), 11)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	c := Generate(testConfig(), 12)
	if reflect.DeepEqual(a.Faults, c.Faults) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestGenerateShape(t *testing.T) {
	s := Generate(testConfig(), 3)
	var links []Fault
	for _, f := range s.Faults {
		if f.Kind == FaultLinkDown || f.Kind == FaultLinkUp {
			links = append(links, f)
		}
	}
	if got, want := len(links), 8; got != want {
		t.Errorf("link faults = %d, want %d (4 flaps, paired)", got, want)
	}
	if got := len(s.Reboots()); got != 2 {
		t.Errorf("reboots = %d", got)
	}
	for i := 1; i < len(s.Faults); i++ {
		if s.Faults[i].At < s.Faults[i-1].At {
			t.Fatal("schedule not time-sorted")
		}
	}
	downs := map[string]time.Duration{}
	for _, f := range links {
		key := f.A + "-" + f.B
		switch f.Kind {
		case FaultLinkDown:
			downs[key] = f.At
		case FaultLinkUp:
			if at, ok := downs[key]; ok && f.At <= at {
				t.Errorf("flap %s repairs before it fails", key)
			}
		}
		if f.At > s.Duration {
			t.Errorf("fault beyond horizon: %v", f)
		}
	}
}

func bundle(n int) deploy.SwitchBundle {
	b := deploy.SwitchBundle{}
	for i := 0; i < n; i++ {
		b.Rules = append(b.Rules, deploy.RuleJSON{Tag: 1, In: i, Out: i + 1, NewTag: 2})
	}
	return b
}

func TestFabricDropLosesRequest(t *testing.T) {
	f := NewFabric([]string{"A"})
	f.Inject("A", Fault{Kind: FaultRPCDrop})
	if err := f.Install("A", bundle(3)); err == nil {
		t.Fatal("dropped request reported success")
	}
	got, err := f.Fetch("A")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rules) != 0 {
		t.Fatal("dropped install still staged rules")
	}
}

func TestFabricDelayAppliesButTimesOut(t *testing.T) {
	f := NewFabric([]string{"A"})
	f.Inject("A", Fault{Kind: FaultRPCDelay, Delay: time.Hour})
	if err := f.Install("A", bundle(3)); err == nil {
		t.Fatal("over-deadline delay reported success")
	}
	got, err := f.Fetch("A")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rules) != 3 {
		t.Fatalf("delayed install should have applied; staged %d rules", len(got.Rules))
	}
	// A short delay is invisible.
	f.Inject("A", Fault{Kind: FaultRPCDelay, Delay: time.Millisecond})
	if err := f.Install("A", bundle(2)); err != nil {
		t.Fatal(err)
	}
}

func TestFabricTransientCountsDown(t *testing.T) {
	f := NewFabric([]string{"A"})
	f.Inject("A", Fault{Kind: FaultInstallTransient, Count: 2})
	if err := f.Install("A", bundle(1)); err == nil {
		t.Fatal("1st call should fail")
	}
	if err := f.Install("A", bundle(1)); err == nil {
		t.Fatal("2nd call should fail")
	}
	if err := f.Install("A", bundle(1)); err != nil {
		t.Fatalf("3rd call should pass: %v", err)
	}
}

func TestFabricPartialKeepsPrefixAndWaitsForInstall(t *testing.T) {
	f := NewFabric([]string{"A"})
	f.Inject("A", Fault{Kind: FaultInstallPartial, Frac: 0.5})
	// A partial fault must not fire on a Fetch.
	if _, err := f.Fetch("A"); err != nil {
		t.Fatal(err)
	}
	if err := f.Install("A", bundle(4)); err != nil {
		t.Fatalf("partial install must report success (that is the danger): %v", err)
	}
	got, err := f.Fetch("A")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rules) != 2 {
		t.Fatalf("staged %d rules, want prefix of 2", len(got.Rules))
	}
	// Even Frac 1.0 must land strictly fewer rules than pushed.
	f.Inject("A", Fault{Kind: FaultInstallPartial, Frac: 1.0})
	if err := f.Install("A", bundle(4)); err != nil {
		t.Fatal(err)
	}
	got, _ = f.Fetch("A")
	if len(got.Rules) >= 4 {
		t.Fatalf("partial with Frac=1 staged all %d rules", len(got.Rules))
	}
}

func TestFabricRebootWipesAndActivateRefuses(t *testing.T) {
	f := NewFabric([]string{"A"})
	if err := f.Install("A", bundle(3)); err != nil {
		t.Fatal(err)
	}
	if err := f.Activate("A"); err != nil {
		t.Fatal(err)
	}
	if len(f.sw["A"].active.Rules) != 3 {
		t.Fatal("activation lost rules")
	}
	f.Reboot("A")
	if len(f.sw["A"].active.Rules) != 0 {
		t.Fatal("reboot kept active rules")
	}
	if err := f.Activate("A"); err == nil {
		t.Fatal("activate with nothing staged must refuse, not wipe live rules")
	}
}

func TestFabricDuplicateIsIdempotent(t *testing.T) {
	f := NewFabric([]string{"A"})
	f.Inject("A", Fault{Kind: FaultRPCDuplicate})
	if err := f.Install("A", bundle(3)); err != nil {
		t.Fatal(err)
	}
	got, _ := f.Fetch("A")
	if len(got.Rules) != 3 {
		t.Fatalf("duplicated install corrupted staged state: %d rules", len(got.Rules))
	}
}

func TestActiveBundleAssemblesLiveState(t *testing.T) {
	f := NewFabric([]string{"A", "B"})
	if err := f.Install("A", bundle(2)); err != nil {
		t.Fatal(err)
	}
	if err := f.Activate("A"); err != nil {
		t.Fatal(err)
	}
	if err := f.Install("B", bundle(5)); err != nil {
		t.Fatal(err)
	}
	// B staged but never activated: must not appear live.
	live := f.ActiveBundle(2)
	if len(live.Switches) != 1 || len(live.Switches["A"].Rules) != 2 {
		t.Fatalf("live bundle wrong: %+v", live.Switches)
	}
}

func TestLoadRoutesAgentFaults(t *testing.T) {
	s := Generate(testConfig(), 5)
	f := NewFabric(testConfig().Switches)
	f.Load(s)
	pending := 0
	for _, st := range f.sw {
		pending += len(st.queue)
	}
	if want := len(s.AgentFaults()); pending != want {
		t.Errorf("loaded %d faults, want %d", pending, want)
	}
}
