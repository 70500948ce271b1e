package workload

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// onsetTracer counts events by kind and keeps the first deadlock
// onset's time.
type onsetTracer struct {
	sim.CountingTracer
	first int64
}

func (t *onsetTracer) Trace(ev sim.TraceEvent) {
	if ev.Kind == "deadlock" && t.Counts["deadlock"] == 0 {
		t.first = ev.T
	}
	t.CountingTracer.Trace(ev)
}

// armDetectMatrix builds a DetectMatrix cell the way the detect-vs-
// prevent matrix arms it: tagger (rules plus a detector that never
// mitigates), detect (detector with targeted drops), scan (global
// recovery scan) or none.
func armDetectMatrix(arm string, seed int64) *Scenario {
	opt := Options{}
	if arm == "tagger" {
		opt.Bounces = 1
	}
	s := DetectMatrix(opt, seed)
	switch arm {
	case "tagger":
		s.Net.EnableDetector(sim.DetectorConfig{Mitigation: sim.MitigateNone})
	case "detect":
		s.Net.EnableDetector(sim.DetectorConfig{Mitigation: sim.MitigateDrop})
	case "scan":
		s.Net.EnableRecovery(500 * time.Microsecond)
	case "none":
	default:
		panic("unknown arm " + arm)
	}
	return s
}

// TestOnsetAgreesAcrossConsumers pins the simulator's one deadlock
// onset: the trace's deadlock events, the onset telemetry and
// DeadlockTrack all count the same episodes and date the first one to
// the same instant.
func TestOnsetAgreesAcrossConsumers(t *testing.T) {
	scenarios := map[string]func() *Scenario{
		"fig10-base": func() *Scenario { return Figure10(Options{}) },
		"fig11-base": func() *Scenario { return Figure11(Options{}) },
		"fig12-base": func() *Scenario { return Figure12(Options{}) },
		"recovery-fig10": func() *Scenario {
			s := Figure10(Options{})
			s.Net.EnableRecovery(500 * time.Microsecond)
			return s
		},
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, arm := range []string{"tagger", "detect", "scan", "none"} {
			scenarios[fmt.Sprintf("detect-seed%d-%s", seed, arm)] = func() *Scenario {
				return armDetectMatrix(arm, seed)
			}
		}
	}
	for name, build := range scenarios {
		t.Run(name, func(t *testing.T) {
			s := build()
			tr := &onsetTracer{first: -1}
			reg := telemetry.NewRegistry()
			s.Net.SetTracer(tr)
			s.Net.SetTelemetry(reg)
			track := s.Net.TrackDeadlocks()
			s.Run()

			var telOnsets int64
			var telFirst float64
			snap := reg.Snapshot()
			for _, c := range snap.Counters {
				if c.Name == "sim_deadlock_onsets_total" {
					telOnsets = c.Value
				}
			}
			for _, g := range snap.Gauges {
				if g.Name == "sim_time_to_deadlock_seconds" {
					telFirst = g.Value
				}
			}
			traced := tr.Counts["deadlock"]
			if traced != int64(track.Onsets) || telOnsets != int64(track.Onsets) {
				t.Errorf("onsets: trace %d, telemetry %d, DeadlockTrack %d", traced, telOnsets, track.Onsets)
			}
			if time.Duration(tr.first) != track.FirstOnsetAt {
				t.Errorf("first onset: trace %v, DeadlockTrack %v", time.Duration(tr.first), track.FirstOnsetAt)
			}
			if track.FirstOnsetAt >= 0 && telFirst != track.FirstOnsetAt.Seconds() {
				t.Errorf("first onset: telemetry %v s, DeadlockTrack %v", telFirst, track.FirstOnsetAt)
			}
		})
	}
}

// TestOnsetTrackIsExact pins the premise the single onset check rests
// on: pause effects are the only transitions that create a wait-for
// cycle, and resume effects and flushes the only ones that break it. If
// so, an episode is open exactly when a fresh scan finds a cycle, at
// every instant and not only at the checks. Besides the detect matrix,
// the scenarios include forwarding that changes mid-run: Figure 11's
// overrides, Reconvergence's Recompute, and chaos soaks' detours and
// reboots.
func TestOnsetTrackIsExact(t *testing.T) {
	const step = 200 * time.Nanosecond
	scenarios := map[string]func() *Scenario{
		"fig11-base":  func() *Scenario { return Figure11(Options{}) },
		"reconverge8": func() *Scenario { return Reconvergence(Options{}, 8) },
	}
	for seed := int64(1); seed <= 2; seed++ {
		for _, arm := range []string{"none", "detect", "scan"} {
			scenarios[fmt.Sprintf("detect-seed%d-%s", seed, arm)] = func() *Scenario {
				return armDetectMatrix(arm, seed)
			}
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		scenarios[fmt.Sprintf("chaos-seed%d", seed)] = func() *Scenario {
			return Chaos(Options{}, chaos.Generate(chaosSoakConfig, seed))
		}
	}
	for name, build := range scenarios {
		t.Run(name, func(t *testing.T) {
			s := build()
			track := s.Net.TrackDeadlocks()
			for at := step; at <= s.Duration; at += step {
				s.Net.Run(at)
				if open, live := track.Open(), s.Net.Deadlocked(); open != live {
					t.Fatalf("at %v DeadlockTrack.Open() = %v, wait-for scan finds a cycle = %v", at, open, live)
				}
			}
			if track.Onsets == 0 {
				t.Error("no deadlock formed; the samples prove nothing")
			}
		})
	}
}

// chaosSoakConfig is the chaos soak's schedule configuration (the root
// package's ChaosSoakConfig, which this package cannot import).
var chaosSoakConfig = chaos.Config{
	Duration:      40 * time.Millisecond,
	Links:         ChaosLinks(),
	Switches:      ChaosSwitches(),
	LinkFlaps:     3,
	Reboots:       2,
	InstallFaults: 2,
	RPCFaults:     2,
}
