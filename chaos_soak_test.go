package tagger

import (
	"reflect"
	"testing"

	"repro/internal/telemetry"
)

// TestChaosSoak is the headline robustness claim: across seeded fault
// schedules (link flaps, switch reboots, faulty switch agents), a
// Tagger deployment pushed through the unreliable agents keeps the
// fabric deadlock-free with zero lossless drops, while the identical
// schedules without Tagger deadlock.
func TestChaosSoak(t *testing.T) {
	seeds := []int64{1, 2, 3}
	baselineDeadlocks := 0
	for _, seed := range seeds {
		with, err := ChaosSoak(seed, true)
		if err != nil {
			t.Fatalf("seed %d with Tagger: %v", seed, err)
		}
		if !with.FabricVerified {
			t.Errorf("seed %d: fabric ran an unverified bundle", seed)
		}
		if !with.Clean() {
			t.Errorf("seed %d with Tagger: deadlocked=%v losslessDrops=%d (first cycle: %v)",
				seed, with.Deadlocked, with.Watchdog.LosslessDrops, with.FirstDeadlock)
		}
		if with.Drops.HeadroomViolation != 0 {
			t.Errorf("seed %d with Tagger: %d headroom violations", seed, with.Drops.HeadroomViolation)
		}
		if with.Watchdog.Samples == 0 {
			t.Errorf("seed %d: watchdog never sampled", seed)
		}

		without, err := ChaosSoak(seed, false)
		if err != nil {
			t.Fatalf("seed %d without Tagger: %v", seed, err)
		}
		if without.Deadlocked {
			baselineDeadlocks++
		}
	}
	if baselineDeadlocks == 0 {
		t.Error("no schedule deadlocked the no-Tagger baseline; the soak proves nothing")
	}
}

// TestChaosSoakDeterministic: same seed, same verdict — bit-identical
// result structures across runs, both with and without Tagger.
func TestChaosSoakDeterministic(t *testing.T) {
	for _, withTagger := range []bool{false, true} {
		a, err := ChaosSoak(2, withTagger)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ChaosSoak(2, withTagger)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("withTagger=%v: identical seeds produced different results:\n%+v\n%+v",
				withTagger, a, b)
		}
	}
}

// TestChaosSoakCountsRebootLossesSeparately: reboot-induced losses land
// in their own counter and never in the lossless-drop invariant.
func TestChaosSoakCountsRebootLossesSeparately(t *testing.T) {
	// Seed 2's schedule includes reboots that catch queued traffic.
	r, err := ChaosSoak(2, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Drops.SwitchReboot == 0 {
		t.Skip("schedule produced no reboot losses on this testbed")
	}
	if r.Watchdog.RebootDrops != r.Drops.SwitchReboot {
		t.Errorf("watchdog saw %d reboot drops, sim counted %d",
			r.Watchdog.RebootDrops, r.Drops.SwitchReboot)
	}
	if !r.Clean() {
		t.Error("reboot losses tripped the lossless-drop invariant")
	}
}

// TestChaosSoakTelemetry: a soak run with a registry attached reports
// the simulator's PFC histograms, the merged deployment counters, and a
// "soak" span — the wiring the taggersim ops endpoint serves.
func TestChaosSoakTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	r, err := ChaosSoakWith(1, true, RunOptions{Ops: reg})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	counters := map[string]int64{}
	for _, cs := range snap.Counters {
		counters[cs.Name] += cs.Value
	}
	if counters["deploy.pushes"] == 0 {
		t.Error("controller deploy counters not merged into registry")
	}
	if got := counters["deploy.pushes"]; got != r.DeployCounters["deploy.pushes"] {
		t.Errorf("merged deploy.pushes = %d, result carries %d", got, r.DeployCounters["deploy.pushes"])
	}
	var sawPause, sawSoak bool
	for _, hs := range snap.Hists {
		if hs.Name == "sim_pause_duration_seconds" && hs.Count > 0 {
			sawPause = true
		}
		if hs.Name == "span_duration_seconds" {
			for _, l := range hs.Labels {
				if l.K == "span" && l.V == "soak" {
					sawSoak = true
				}
			}
		}
	}
	if !sawPause {
		t.Error("no pause-duration observations from the soak")
	}
	if !sawSoak {
		t.Error("no soak span recorded")
	}
}
