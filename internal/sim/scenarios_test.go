package sim_test

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
)

// TestLaneFallbacksZero runs the Figure 10/11/12 scenarios, both halves,
// and the four arms of the detect matrix. The scheduler panics if an
// evArrive, evTxDone or evPFC would leave its lane's time order, so a
// run that finishes kept every lane-kind event in its lane; each run
// must also end with its invariants intact.
func TestLaneFallbacksZero(t *testing.T) {
	tagger := workload.Options{Bounces: 1}
	figure := func(build func(workload.Options) *workload.Scenario, opt workload.Options) func() *workload.Scenario {
		return func() *workload.Scenario { return build(opt) }
	}
	// The matrix arms as experiments_detect.go's DetectRun arms them.
	detect := func(opt workload.Options, arm func(*sim.Network)) func() *workload.Scenario {
		return func() *workload.Scenario {
			s := workload.DetectMatrix(opt, 3)
			arm(s.Net)
			s.Net.TrackDeadlocks()
			s.Net.StartWatchdog(500 * time.Microsecond)
			return s
		}
	}
	for name, build := range map[string]func() *workload.Scenario{
		"fig10-base":   figure(workload.Figure10, workload.Options{}),
		"fig10-tagger": figure(workload.Figure10, tagger),
		"fig11-base":   figure(workload.Figure11, workload.Options{}),
		"fig11-tagger": figure(workload.Figure11, tagger),
		"fig12-base":   figure(workload.Figure12, workload.Options{}),
		"fig12-tagger": figure(workload.Figure12, tagger),
		"detect-tagger": detect(tagger, func(n *sim.Network) {
			n.EnableDetector(sim.DetectorConfig{Mitigation: sim.MitigateNone})
		}),
		"detect-detect": detect(workload.Options{}, func(n *sim.Network) {
			n.EnableDetector(sim.DetectorConfig{Mitigation: sim.MitigateDrop})
		}),
		"detect-scan": detect(workload.Options{}, func(n *sim.Network) {
			n.EnableRecovery(500 * time.Microsecond)
		}),
		"detect-none": detect(workload.Options{}, func(*sim.Network) {}),
	} {
		s := build()
		s.Run()
		st := s.Net.EngineStats()
		if st.LanePushes == 0 || st.MaxPacketsLive == 0 {
			t.Errorf("%s: idle run: %+v", name, st)
		}
		if err := s.Net.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
