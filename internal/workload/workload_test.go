package workload

import (
	"testing"
	"time"

	"repro/internal/elp"
	"repro/internal/paper"
)

func TestFigure10WithoutTaggerDeadlocks(t *testing.T) {
	s := Figure10(Options{Bounces: 0})
	s.Run()
	if !s.Net.Deadlocked() {
		t.Fatal("Figure 10(a): expected deadlock without Tagger")
	}
	for _, f := range s.Flows {
		if r := f.MeanGbps(s.Duration-5*time.Millisecond, s.Duration); r > 0.01 {
			t.Errorf("flow %s still delivering %.2f Gbps under deadlock", f.Name(), r)
		}
	}
}

func TestFigure10WithTaggerFlows(t *testing.T) {
	s := Figure10(Options{Bounces: 1})
	s.Run()
	if s.Net.Deadlocked() {
		t.Fatalf("Figure 10(b): deadlock under Tagger: %v", s.Net.DetectDeadlock())
	}
	for _, f := range s.Flows {
		if r := f.MeanGbps(s.Duration-5*time.Millisecond, s.Duration); r < 10 {
			t.Errorf("flow %s at %.2f Gbps, want > 10 under Tagger", f.Name(), r)
		}
	}
	if d := s.Net.Drops(); d.Total() != 0 {
		t.Errorf("drops under Tagger: %+v", d)
	}
}

func TestFigure11(t *testing.T) {
	// Without Tagger: deadlock pauses F1 too.
	base := Figure11(Options{Bounces: 0})
	base.Run()
	if !base.Net.Deadlocked() {
		t.Fatal("Figure 11 baseline: expected deadlock from routing loop")
	}
	if r := base.ByName["F1"].MeanGbps(base.Duration-5*time.Millisecond, base.Duration); r > 0.01 {
		t.Errorf("baseline F1 still at %.2f Gbps", r)
	}

	// With Tagger: F1 keeps flowing, F2's looped packets die harmlessly.
	tg := Figure11(Options{Bounces: 1})
	tg.Run()
	if tg.Net.Deadlocked() {
		t.Fatalf("Figure 11 Tagger: deadlock: %v", tg.Net.DetectDeadlock())
	}
	if r := tg.ByName["F1"].MeanGbps(tg.Duration-5*time.Millisecond, tg.Duration); r < 5 {
		t.Errorf("Tagger F1 at %.2f Gbps, want > 5", r)
	}
	if r := tg.ByName["F2"].MeanGbps(10*time.Millisecond, tg.Duration); r > 0.01 {
		t.Errorf("Tagger F2 should be dead in the loop, got %.2f", r)
	}
	d := tg.Net.Drops()
	if d.TTLExpired+d.LossyOverflow == 0 {
		t.Error("expected looped packets to die by TTL or lossy overflow")
	}
	if d.HeadroomViolation != 0 {
		t.Errorf("lossless drop under Tagger: %+v", d)
	}
}

func TestFigure12PausePropagation(t *testing.T) {
	// Without Tagger: the CBD from the two bounced flows pauses all 8.
	base := Figure12(Options{Bounces: 0})
	base.Run()
	if !base.Net.Deadlocked() {
		t.Fatal("Figure 12 baseline: expected deadlock")
	}
	stuck := 0
	for _, f := range base.Flows {
		if f.MeanGbps(base.Duration-5*time.Millisecond, base.Duration) < 0.01 {
			stuck++
		}
	}
	if stuck != len(base.Flows) {
		t.Errorf("only %d/%d flows paused by propagation", stuck, len(base.Flows))
	}

	// With Tagger: everyone keeps flowing.
	tg := Figure12(Options{Bounces: 1})
	tg.Run()
	if tg.Net.Deadlocked() {
		t.Fatalf("Figure 12 Tagger: deadlock: %v", tg.Net.DetectDeadlock())
	}
	for _, f := range tg.Flows {
		if r := f.MeanGbps(tg.Duration-5*time.Millisecond, tg.Duration); r < 1 {
			t.Errorf("flow %s at %.2f Gbps under Tagger", f.Name(), r)
		}
	}
}

func TestPermutationOverheadNegligible(t *testing.T) {
	// §8: Tagger imposes no discernible throughput penalty. Compare the
	// permutation workload's aggregate goodput with and without rules.
	base := Permutation(Options{Bounces: 0})
	base.Run()
	tagged := Permutation(Options{Bounces: 1})
	tagged.Run()

	from, to := 5*time.Millisecond, 10*time.Millisecond
	gb := base.AggregateGoodput(from, to)
	gt := tagged.AggregateGoodput(from, to)
	if gb == 0 {
		t.Fatal("baseline produced no goodput")
	}
	penalty := (gb - gt) / gb
	if penalty > 0.01 || penalty < -0.01 {
		t.Errorf("Tagger overhead = %.2f%% (base %.1f vs tagged %.1f Gbps), want |x| <= 1%%",
			penalty*100, gb, gt)
	}
}

// TestTaggerELP: the testbed deployment's ELP — all shortest up-down
// paths plus all 1-bounce paths between ToRs — holds both pinned
// scenario paths.
func TestTaggerELP(t *testing.T) {
	s := Figure10(Options{Bounces: 1})
	set := elp.KBounce(s.Clos.Graph, s.Clos.ToRs, 1, nil)
	if set.Len() == 0 {
		t.Fatal("empty ELP")
	}
	// Both pinned scenario paths (switch-level) must be expected lossless.
	if !set.Contains(paper.Fig3GreenPath(s.Clos)) || !set.Contains(paper.Fig3BluePath(s.Clos)) {
		t.Error("scenario paths missing from the deployed ELP")
	}
}
