package check

import "testing"

// TestChurnSweep runs a small seeded churn-fuzz sweep over both families
// as the always-on smoke layer; cmd/taggerfuzz -churn and `make
// churn-fuzz` scale the same loop to hundreds of seeds.
func TestChurnSweep(t *testing.T) {
	seeds := int64(6)
	if testing.Short() {
		seeds = 2
	}
	for _, topo := range Churn.Topos() {
		for seed := int64(1); seed <= seeds; seed++ {
			c := Churn.Gen(topo, seed)
			if !c.validConfig() {
				t.Fatalf("Churn.Gen emitted an invalid config: %s", c)
			}
			if err := RunChurnCase(c); err != nil {
				t.Errorf("churn differential failure (replay with: taggerfuzz -churn -topo %s -seed %d -seeds 1): %v",
					topo, seed, err)
			}
		}
	}
}

// TestShrinkChurnConvergence: for a synthetic predicate on a churn case
// the shrinker terminates, keeps the case failing, never probes an
// invalid configuration, and takes the event count to its threshold and
// every other knob to its floor.
func TestShrinkChurnConvergence(t *testing.T) {
	c := Churn.Gen("clos", 7)
	evFloor := 3
	fails := func(c Case) bool {
		if !c.validConfig() {
			t.Fatalf("invalid probe: %s", c)
		}
		return c.Events >= evFloor
	}
	got := Shrink(c, fails)
	if !fails(got) {
		t.Fatalf("shrunk case stopped failing: %s", got)
	}
	if got.Events != evFloor {
		t.Fatalf("events not fully shrunk: got %d, want %d", got.Events, evFloor)
	}
	if got.Pods*got.ToRsPerPod != 2 || got.Workers != 1 || got.PodAdds != 0 {
		t.Fatalf("knobs not at floors: %s", got)
	}
}
