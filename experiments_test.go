package tagger

import (
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/sim"
)

func TestCompareRecoveryExperiment(t *testing.T) {
	res := CompareRecovery()
	if res.RecoveryDetections < 2 {
		t.Errorf("recovery detections = %d, want repeated reformation", res.RecoveryDetections)
	}
	if res.RecoveryPacketsDropped == 0 {
		t.Error("recovery sacrificed no packets")
	}
	if res.TaggerGoodputGbps < res.RecoveryGoodputGbps*2 {
		t.Errorf("Tagger goodput %.1f should dominate recovery %.1f",
			res.TaggerGoodputGbps, res.RecoveryGoodputGbps)
	}
}

func TestDCQCNExperimentShape(t *testing.T) {
	res := DCQCNExperiment()
	if res.PausesWithCC*5 > res.PausesWithoutCC {
		t.Errorf("DCQCN pauses %d not far below baseline %d",
			res.PausesWithCC, res.PausesWithoutCC)
	}
	if res.GoodputGbps < 20 {
		t.Errorf("incast goodput with CC = %.1f Gbps", res.GoodputGbps)
	}
	if !res.TaggerCleanWith {
		t.Error("Tagger + DCQCN not clean")
	}
}

func TestQueueBudgetExperiment(t *testing.T) {
	rows := QueueBudget()
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MaxLossless < 1 || r.MaxLossless > 4 {
			t.Errorf("%s: %d lossless queues, paper says a handful (<= 4)", r.Name, r.MaxLossless)
		}
		if r.PerQueueBytes <= 0 || r.BufferMB <= 0 {
			t.Errorf("row fields: %+v", r)
		}
	}
	if rows[1].MaxLossless > rows[0].MaxLossless {
		t.Error("budget should not improve across generations (§3.3)")
	}
}

func TestCompressionAblationExperiment(t *testing.T) {
	lv := CompressionAblation()
	if !(lv.Exact > lv.InPortOnly && lv.InPortOnly > lv.Joint) {
		t.Errorf("compression levels: %+v", lv)
	}
}

func TestBundleFacade(t *testing.T) {
	clos := PaperTestbed()
	set := KBounceELP(clos, 1)
	sys, err := SynthesizeClos(clos, set, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := deploy.Export(sys.Rules)
	rs, err := deploy.Import(clos.Graph, b)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != sys.Rules.Len() {
		t.Errorf("roundtrip lost rules: %d vs %d", rs.Len(), sys.Rules.Len())
	}
	if diffs := DiffBundles(b, deploy.Export(rs)); len(diffs) != 0 {
		t.Errorf("roundtrip diff: %v", diffs)
	}
}

func TestControllerFacade(t *testing.T) {
	clos := PaperTestbed()
	ctl, err := NewClosController(clos, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := clos.Graph
	if err := ctl.Handle(ControllerEvent{Kind: EventLinkDown,
		A: g.MustLookup("L1"), B: g.MustLookup("T1")}); err != nil {
		t.Fatal(err)
	}
	if len(ctl.Diffs()) != 0 {
		t.Error("failure caused rule churn")
	}
}

func TestChipSpecFacade(t *testing.T) {
	if Tomahawk40G().MaxLosslessQueues() < 1 || Tomahawk100G().MaxLosslessQueues() < 1 {
		t.Error("chip budgets")
	}
}

func TestChipSpecValidate(t *testing.T) {
	good := Tomahawk40G()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []ChipSpec{
		{},
		{TotalBuffer: 1, Ports: 0, LinkBitsPerSec: 1},
		{TotalBuffer: 1, Ports: 1, LinkBitsPerSec: 0},
		{TotalBuffer: 1, Ports: 1, LinkBitsPerSec: 1, LossyFraction: 1.5},
		{TotalBuffer: 1, Ports: 1, LinkBitsPerSec: 1, XoffPerQueue: -1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, s)
		}
	}
	if (ChipSpec{}).MaxLosslessQueues() != 0 {
		t.Error("invalid spec should yield 0 queues")
	}
}

// TestPaperQueueBudgetClaim reproduces §3.3: commodity chips can
// realistically guarantee only a few lossless priorities, and the budget
// does not improve across generations because buffer grows slower than
// speed ("their size is not expected to increase rapidly even as link
// speeds and port counts go up").
func TestPaperQueueBudgetClaim(t *testing.T) {
	g40 := Tomahawk40G().MaxLosslessQueues()
	g100 := Tomahawk100G().MaxLosslessQueues()
	if g40 < 2 || g40 > 4 {
		t.Errorf("40G generation supports %d lossless queues, paper says 2-4", g40)
	}
	if g100 > 4 {
		t.Errorf("100G generation supports %d lossless queues, paper says <= 4", g100)
	}
	if g100 > g40 {
		t.Errorf("queue budget improved across generations (%d -> %d), contradicting §3.3", g40, g100)
	}
}

func TestQueueBudgetMonotonicity(t *testing.T) {
	base := Tomahawk40G()

	bigger := base
	bigger.TotalBuffer *= 4
	if bigger.MaxLosslessQueues() < base.MaxLosslessQueues() {
		t.Error("more buffer cannot reduce the budget")
	}

	faster := base
	faster.LinkBitsPerSec *= 4
	if faster.MaxLosslessQueues() > base.MaxLosslessQueues() {
		t.Error("faster links cannot increase the budget")
	}

	longer := base
	longer.CableDelay = 20 * time.Microsecond
	if longer.MaxLosslessQueues() > base.MaxLosslessQueues() {
		t.Error("longer cables cannot increase the budget")
	}

	lossier := base
	lossier.LossyFraction = 0.9
	if lossier.MaxLosslessQueues() > base.MaxLosslessQueues() {
		t.Error("bigger lossy reservation cannot increase the budget")
	}
}

func TestQueueBudgetCap(t *testing.T) {
	// A hypothetical chip with oceans of buffer is still capped by the
	// PFC standard's 8 priorities.
	s := Tomahawk40G()
	s.TotalBuffer = 1 << 40
	if got := s.MaxLosslessQueues(); got != 8 {
		t.Errorf("budget = %d, want capped at 8", got)
	}
}

func TestPerQueueReservation(t *testing.T) {
	s := Tomahawk40G()
	want := sim.ComputeHeadroom(s.LinkBitsPerSec, s.CableDelay, s.MTU) + s.XoffPerQueue
	if got := s.PerQueueReservation(); got != want {
		t.Errorf("reservation = %d, want %d", got, want)
	}
}
