package check

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
)

// detectorQuietReport is the verdict of one false-positive oracle run:
// the in-switch detector rode along on a Tagger-protected scenario with
// mitigation off, and an independent global-view watchdog confirmed no
// pause-wait cycle ever existed for it to find.
type detectorQuietReport struct {
	Seed int64
	// WatchdogSamples counts independent cycle checks; DeadlockSamples
	// must be zero for the oracle's premise to hold.
	WatchdogSamples int
	DeadlockSamples int
	// Detections is what the oracle is about: with no cycle ever live,
	// every firing is a false positive by definition.
	Detections     int
	FalsePositives int
	// Incidents holds the flight-recorder captures for this seed: a
	// detector firing with no live cycle freezes the recorder with
	// trigger "fp-oracle", so an oracle failure ships its own forensic
	// evidence (feed Incident.Data to `taggertrace postmortem`). Empty
	// on a healthy run.
	Incidents []sim.Incident
}

// verifyDetectorQuiet is the detector's false-positive oracle: for each
// seed it builds the detect-matrix scenario (CBD-capable pinned paths,
// background traffic, off-path reboots) with Tagger's 1-bounce rules
// installed, arms the in-switch detector in observe-only mode, and runs
// a 500us global-view watchdog beside it. Tagger guarantees the
// pause-wait graph stays acyclic (Theorem 5.1), the watchdog
// independently confirms it on this run, and therefore any detector
// firing is a false positive — the oracle fails on the first one.
//
// The two detection mechanisms share nothing: the watchdog walks the
// live queue-wait graph globally, the in-switch detector circulates
// tags hop by hop. Agreement ("nothing to find" / "found nothing") is
// the evidence; a detection with zero deadlock samples indicts the tag
// machinery, and a deadlock sample indicts the premise (Tagger rules
// failed), reported distinctly.
func verifyDetectorQuiet(seeds []int64) ([]detectorQuietReport, error) {
	out := make([]detectorQuietReport, 0, len(seeds))
	for _, seed := range seeds {
		s := workload.DetectMatrix(workload.Options{Bounces: 1}, seed)
		det := s.Net.EnableDetector(sim.DetectorConfig{Mitigation: sim.MitigateNone})
		fr := s.Net.EnableFlightRecorder(sim.FlightRecConfig{})
		wd := s.Net.StartWatchdog(500 * time.Microsecond)
		s.Run()
		r := detectorQuietReport{
			Seed:            seed,
			WatchdogSamples: wd.Samples,
			DeadlockSamples: wd.DeadlockSamples,
			Detections:      det.Detections,
			FalsePositives:  det.FalsePositives,
			Incidents:       fr.Incidents(),
		}
		out = append(out, r)
		if r.WatchdogSamples == 0 {
			return out, fmt.Errorf("check: seed %d: watchdog never sampled; the oracle has no independent witness", seed)
		}
		if r.DeadlockSamples != 0 {
			return out, fmt.Errorf("check: seed %d: %d deadlock samples under Tagger rules — the oracle's premise failed, not the detector",
				seed, r.DeadlockSamples)
		}
		if r.Detections != 0 {
			return out, fmt.Errorf("check: seed %d: detector fired %d times on a run the watchdog confirms was deadlock-free — false positives (%d flight-recorder captures attached)",
				seed, r.Detections, len(r.Incidents))
		}
	}
	return out, nil
}

// TestDetectorQuietOnTaggerTopology is the false-positive oracle gate:
// across a handful of seeds of the matrix scenario under Tagger rules,
// the independent watchdog must confirm no cycle ever formed and the
// in-switch detector must never have fired.
func TestDetectorQuietOnTaggerTopology(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	reports, err := verifyDetectorQuiet(seeds)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(seeds) {
		t.Fatalf("got %d reports, want %d", len(reports), len(seeds))
	}
	for _, r := range reports {
		if r.WatchdogSamples == 0 {
			t.Errorf("seed %d: no independent witness", r.Seed)
		}
		if r.Detections != 0 || r.FalsePositives != 0 {
			t.Errorf("seed %d: detections=%d fp=%d, want 0/0", r.Seed, r.Detections, r.FalsePositives)
		}
	}
}

// TestDetectorQuietOracleNotVacuous proves the oracle can actually
// fail: the same scenario without Tagger rules deadlocks, and the
// oracle must reject it as a premise failure (the watchdog saw a
// cycle) — distinctly from a detector false positive. An oracle that
// passes everything proves nothing.
func TestDetectorQuietOracleNotVacuous(t *testing.T) {
	s := workload.DetectMatrix(workload.Options{}, 1)
	det := s.Net.EnableDetector(sim.DetectorConfig{Mitigation: sim.MitigateNone})
	wd := s.Net.StartWatchdog(500 * time.Microsecond)
	s.Run()
	if wd.DeadlockSamples == 0 {
		t.Fatal("unprotected scenario did not deadlock; the oracle's negative control drifted")
	}
	if det.Detections == 0 {
		t.Fatal("detector missed a genuine, watchdog-confirmed deadlock")
	}
}
