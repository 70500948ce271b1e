package tagger

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/elp"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/workload"
)

// figure11 runs the routing-loop experiment.
func figure11(withTagger bool) ExperimentResult {
	return runScenario(workload.Figure11(bounces(withTagger)))
}

// figure12 runs the PAUSE-propagation shuffle experiment.
func figure12(withTagger bool) ExperimentResult {
	return runScenario(workload.Figure12(bounces(withTagger)))
}

func TestFigure11Experiment(t *testing.T) {
	without := figure11(false)
	if !without.Deadlocked {
		t.Error("fig11 baseline should deadlock")
	}
	with := figure11(true)
	if with.Deadlocked {
		t.Error("fig11 with Tagger deadlocked")
	}
	// F1 alive, F2 dead under Tagger.
	rates := map[string]float64{}
	for _, f := range with.Flows {
		rates[f.Name] = f.LateGbps
	}
	if rates["F1"] < 5 {
		t.Errorf("F1 = %.1f Gbps", rates["F1"])
	}
	if rates["F2"] > 0.01 {
		t.Errorf("F2 = %.1f Gbps, should be dead in the loop", rates["F2"])
	}
}

func TestFigure12Experiment(t *testing.T) {
	without := figure12(false)
	if !without.Deadlocked {
		t.Error("fig12 baseline should deadlock")
	}
	stuck := 0
	for _, f := range without.Flows {
		if f.LateGbps < 0.01 {
			stuck++
		}
	}
	if stuck != len(without.Flows) {
		t.Errorf("PAUSE propagation froze %d/%d flows", stuck, len(without.Flows))
	}
	with := figure12(true)
	if with.Deadlocked {
		t.Error("fig12 with Tagger deadlocked")
	}
}

func TestTable5ResultString(t *testing.T) {
	row, err := Table5Case(30, 8, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	res := Table5Result{Rows: []Table5Row{row}}
	s := res.String()
	if !strings.Contains(s, "Priorities") || !strings.Contains(s, "30") {
		t.Errorf("table: %q", s)
	}
}

func TestSynthesizeBruteForceFacade(t *testing.T) {
	clos := PaperTestbed()
	set := elp.UpDownAll(clos.Graph, clos.ToRs)
	sys, err := core.Synthesize(clos.Graph, set.Paths(), core.Options{SkipMerge: true})
	if err != nil {
		t.Fatal(err)
	}
	// Brute force on up-down ToR paths needs one tag per hop (4).
	if got := sys.Runtime.NumSwitchTags(); got != 4 {
		t.Errorf("brute-force tags = %d, want 4", got)
	}
	merged, err := Synthesize(clos.Graph, set)
	if err != nil {
		t.Fatal(err)
	}
	if got := merged.Runtime.NumSwitchTags(); got != 1 {
		t.Errorf("merged tags = %d, want 1", got)
	}
}

func TestFatTreeFacade(t *testing.T) {
	ft, err := NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	set := ELPFromKBounce(ft.Graph, ft.Edges, 1)
	sys, err := SynthesizeFatTree(ft, set, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumLosslessQueues() != 2 {
		t.Errorf("fat-tree queues = %d", sys.NumLosslessQueues())
	}
}

func TestJellyfishFacadeWithRandomELP(t *testing.T) {
	j, err := NewJellyfish(JellyfishConfig{Switches: 15, Ports: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	set := ShortestELP(j.Graph, j.Switches)
	before := set.Len()
	elp.AddRandomPaths(set, j.Graph, j.Switches, 30, 6, 5)
	if set.Len() != before+30 {
		t.Errorf("random ELP: %d -> %d", before, set.Len())
	}
	sys, err := Synthesize(j.Graph, set)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Runtime.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestBCubeFacade(t *testing.T) {
	b, err := NewBCube(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	set := BCubeELP(b)
	if set.Len() == 0 {
		t.Fatal("empty BCube ELP")
	}
}

func TestDCQCNFacadeDefaults(t *testing.T) {
	cfg := sim.DefaultDCQCN()
	if cfg.KMin <= 0 || cfg.KMax <= cfg.KMin || cfg.PMax <= 0 {
		t.Errorf("defaults: %+v", cfg)
	}
	clos := PaperTestbed()
	n := sim.New(clos.Graph, routing.ComputeToHosts(clos.Graph, routing.UpDown), sim.DefaultConfig())
	n.EnableDCQCN(cfg)
	f := n.AddFlow(sim.FlowSpec{Name: "x", Src: clos.Hosts[0], Dst: clos.Hosts[8]})
	n.Run(2_000_000)
	if f.Received() == 0 {
		t.Fatal("flow dead under DCQCN facade")
	}
}

func TestRecoveryFacade(t *testing.T) {
	clos := PaperTestbed()
	n := sim.New(clos.Graph, routing.ComputeToHosts(clos.Graph, routing.UpDown), sim.DefaultConfig())
	stats := n.EnableRecovery(1_000_000)
	n.AddFlow(sim.FlowSpec{Name: "x", Src: clos.Hosts[0], Dst: clos.Hosts[8]})
	n.Run(3_000_000)
	if stats.Detections != 0 {
		t.Error("healthy network triggered recovery")
	}
}
