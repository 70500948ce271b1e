package tagger

import (
	"strings"
	"testing"

	"repro/internal/paper"
)

func TestHealthyNetworkNoReroutes(t *testing.T) {
	c := paper.Testbed()
	cfg := defaultProbeConfig()
	cfg.EpisodeRate = 0 // no failures ever
	res := runProbeCampaign(c, cfg, 1, 10_000)
	if len(res) != 1 {
		t.Fatal("rows")
	}
	if res[0].Rerouted != 0 || res[0].Probability != 0 {
		t.Errorf("healthy network saw reroutes: %+v", res[0])
	}
	if res[0].Total != 10_000 || res[0].Day != 1 {
		t.Errorf("row fields: %+v", res[0])
	}
}

func TestRerouteProbabilityBand(t *testing.T) {
	// With the default failure process, the measured probability should
	// land in the paper's 1e-5 order of magnitude.
	c := paper.Testbed()
	res := runProbeCampaign(c, defaultProbeConfig(), 7, 2_000_000)
	if len(res) != 7 {
		t.Fatalf("rows = %d", len(res))
	}
	var total, rer int64
	for _, r := range res {
		total += r.Total
		rer += r.Rerouted
		if r.Day < 1 || r.Day > 7 {
			t.Errorf("day out of range: %+v", r)
		}
	}
	p := float64(rer) / float64(total)
	if p < 1e-6 || p > 1e-3 {
		t.Errorf("reroute probability %.2e outside the plausible band around 1e-5", p)
	}
	if rer == 0 {
		t.Error("failure process produced no reroutes at all")
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	c := paper.Testbed()
	cfg := defaultProbeConfig()
	cfg.EpisodeRate = 1e-3 // denser for a short run
	a := runProbeCampaign(c, cfg, 2, 50_000)
	b := runProbeCampaign(paper.Testbed(), cfg, 2, 50_000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestEpisodesActuallyLowerTTL(t *testing.T) {
	// Force a near-certain failure process and verify reroutes register.
	c := paper.Testbed()
	cfg := defaultProbeConfig()
	cfg.EpisodeRate = 0.05
	cfg.EpisodeLength = 100
	res := runProbeCampaign(c, cfg, 1, 20_000)
	if res[0].Rerouted == 0 {
		t.Fatal("dense failure process produced no rerouted measurements")
	}
	if res[0].Probability <= 0 {
		t.Error("probability not computed")
	}
}

func TestDayResultString(t *testing.T) {
	s := DayResult{Day: 3, Total: 100, Rerouted: 2, Probability: 0.02}.String()
	if !strings.Contains(s, "day 3") || !strings.Contains(s, "rerouted=2") {
		t.Errorf("bad row rendering: %q", s)
	}
}

func TestFailedLinksRestoredAfterDay(t *testing.T) {
	c := paper.Testbed()
	cfg := defaultProbeConfig()
	cfg.EpisodeRate = 0.01
	mc := newProbeCampaign(c, cfg)
	mc.runDay(1, 10_000)
	if got := len(c.Graph.FailedLinks()); got != 0 {
		t.Errorf("%d links left failed after the day", got)
	}
}
