package tagger

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// DetectArm names one arm of the detect-vs-prevent experiment matrix.
type DetectArm string

// The four arms: prevention (Tagger rules, deadlock never forms),
// in-switch detect-and-react (the DCFIT-style tag detector with the
// targeted-drop hook), global-view detect-and-break (the periodic
// recovery scan), and nothing (the control that starves).
const (
	ArmTagger DetectArm = "tagger"
	ArmDetect DetectArm = "detect"
	ArmScan   DetectArm = "scan"
	ArmNone   DetectArm = "none"
)

// DetectArms lists the matrix arms in report order.
func DetectArms() []DetectArm { return []DetectArm{ArmTagger, ArmDetect, ArmScan, ArmNone} }

// DetectRunResult is one (seed, arm) cell of the matrix.
type DetectRunResult struct {
	Seed int64
	Arm  DetectArm

	// Deadlock episode tracking (all arms): onsets observed at PFC
	// granularity, how many cleared, and the recovery latency.
	Onsets     int
	FirstOnset time.Duration // -1 if none
	Recoveries int
	MeanTTR    time.Duration
	MaxTTR     time.Duration
	// StillOpen reports a deadlock live at the very end of the run.
	// Under persistent CBD traffic the cycle re-forms moments after
	// every break (the paper's §1 argument against detect-and-react),
	// so a reactive arm routinely ends mid-episode; the failure signal
	// is Onsets > 0 with Recoveries == 0, not StillOpen.
	StillOpen bool

	// In-switch detector outcome (tagger and detect arms; the tagger arm
	// runs the detector with mitigation off as a false-positive oracle).
	Detections     int
	FalsePositives int
	MeanTTD        time.Duration
	MaxTTD         time.Duration
	Mitigations    int

	// ScanDetections counts the global-view monitor's interventions
	// (scan arm only).
	ScanDetections int

	// GoodputGbps is the aggregate delivered rate over the scenario's
	// steady window (2ms to the horizon) — the metric deadlock collapses.
	GoodputGbps float64

	Drops    sim.DropStats
	Watchdog sim.WatchdogStats

	// Capture holds this cell's flight-recorder incidents and loss
	// counters (RunOptions.FlightRec only; zero otherwise). Captures are
	// deterministic per (seed, arm), so the sweep — incident bytes
	// included — stays par-independent.
	Capture CaptureStats
}

// DetectRun executes one cell of the matrix: the seeded DetectMatrix
// scenario (Figure 3 CBD pair with jittered starts, background cross
// traffic, off-path T2 reboots) under the given arm's protection. When
// o.Ops is non-nil the cell reports arm-qualified counters into it
// ("detect.matrix.*" with an arm label), commutative under merge so the
// sweep aggregate is par-independent. With o.FlightRec set, any deadlock
// onset, detector firing (or false positive) or invariant violation
// freezes the recorder's ring and files an incident into the result's
// Capture.
func DetectRun(seed int64, arm DetectArm, o RunOptions) (DetectRunResult, error) {
	s := workload.DetectMatrix(bounces(arm == ArmTagger), seed)
	res := DetectRunResult{Seed: seed, Arm: arm, FirstOnset: -1}

	var det *sim.DetectorStats
	var scan *sim.RecoveryStats
	switch arm {
	case ArmTagger:
		// The detector rides along with mitigation off: on a protected
		// topology it must never fire, which makes every Tagger-arm run a
		// false-positive oracle.
		det = s.Net.EnableDetector(sim.DetectorConfig{Mitigation: sim.MitigateNone})
	case ArmDetect:
		det = s.Net.EnableDetector(sim.DetectorConfig{Mitigation: sim.MitigateDrop})
	case ArmScan:
		scan = s.Net.EnableRecovery(500 * time.Microsecond)
	case ArmNone:
	default:
		return res, fmt.Errorf("detect: unknown arm %q", arm)
	}
	finish, err := o.capture(s.Net, "")
	if err != nil {
		return res, err
	}
	track := s.Net.TrackDeadlocks()
	wd := s.Net.StartWatchdog(500 * time.Microsecond)

	s.Run()

	res.Onsets = track.Onsets
	res.FirstOnset = track.FirstOnsetAt
	res.Recoveries = track.Recoveries
	res.MeanTTR = track.MeanTTR()
	res.MaxTTR = track.MaxTTR
	res.StillOpen = track.Open()
	if det != nil {
		res.Detections = det.Detections
		res.FalsePositives = det.FalsePositives
		res.MeanTTD = det.MeanTTD()
		res.MaxTTD = det.MaxTTD
		res.Mitigations = det.Mitigations
	}
	if scan != nil {
		res.ScanDetections = scan.Detections
	}
	res.GoodputGbps = s.AggregateGoodput(2*time.Millisecond, s.Duration)
	res.Drops = s.Net.Drops()
	res.Watchdog = *wd
	if res.Capture, err = finish(); err != nil {
		return res, fmt.Errorf("detect: seed %d arm %s: %w", seed, arm, err)
	}

	if reg := o.Ops; reg != nil {
		a := string(arm)
		reg.Counter("detect.matrix.seeds", "arm", a).Inc()
		reg.Counter("detect.matrix.onsets", "arm", a).Add(int64(res.Onsets))
		reg.Counter("detect.matrix.recoveries", "arm", a).Add(int64(res.Recoveries))
		reg.Counter("detect.matrix.detections", "arm", a).Add(int64(res.Detections))
		reg.Counter("detect.matrix.false_positives", "arm", a).Add(int64(res.FalsePositives))
		if res.StillOpen {
			reg.Counter("detect.matrix.unrecovered", "arm", a).Inc()
		}
	}
	return res, nil
}

// DetectMatrix fans the four-arm experiment across o.Par workers: every
// arm runs every seed independently (its own Network, its own scenario
// build, its own flight recorder when o.FlightRec is set), results
// return in (arm, seed) order, and — via sweep.RunMerged — per-run
// telemetry merges into o.Ops deterministically, so the matrix is
// identical at par=1 and par=N.
func DetectMatrix(seeds []int64, o RunOptions) (map[DetectArm][]DetectRunResult, error) {
	out := make(map[DetectArm][]DetectRunResult, 4)
	for _, arm := range DetectArms() {
		results, err := sweep.RunMerged(seeds, o.Par, o.Ops,
			func(seed int64, runReg *telemetry.Registry) (DetectRunResult, error) {
				cell := o
				cell.Ops = runReg
				return DetectRun(seed, arm, cell)
			})
		if err != nil {
			return out, fmt.Errorf("detect: arm %s: %w", arm, err)
		}
		out[arm] = results
	}
	return out, nil
}

// DetectArmSummary aggregates one arm over the sweep.
type DetectArmSummary struct {
	Arm   DetectArm
	Seeds int
	// DeadlockSeeds counts seeds with at least one deadlock onset;
	// RecoveredSeeds the subset that cleared episodes;
	// UnrecoveredSeeds those that never cleared one — a reactive arm's
	// genuine failure mode. OpenAtEnd counts seeds whose last episode
	// was still live at the horizon (expected under persistent CBD
	// traffic: the cycle re-forms after every break).
	DeadlockSeeds    int
	RecoveredSeeds   int
	UnrecoveredSeeds int
	OpenAtEnd        int

	Detections     int
	FalsePositives int
	// MeanTTD/MaxTTD aggregate time-to-detect over seeds that detected;
	// MeanTTR/MaxTTR aggregate time-to-recover over seeds that recovered.
	MeanTTD time.Duration
	MaxTTD  time.Duration
	MeanTTR time.Duration
	MaxTTR  time.Duration

	// MeanGoodputGbps averages the steady-window aggregate rate over
	// seeds.
	MeanGoodputGbps float64
	// SacrificedPackets totals the deliberate losses (detector
	// mitigation + recovery flushes) the arm paid for its recoveries.
	SacrificedPackets int64
	// LosslessDrops totals genuine invariant violations (must be zero).
	LosslessDrops int64
}

// SummarizeDetectMatrix folds per-seed cells into per-arm summaries in
// report order.
func SummarizeDetectMatrix(m map[DetectArm][]DetectRunResult) []DetectArmSummary {
	var out []DetectArmSummary
	for _, arm := range DetectArms() {
		runs := m[arm]
		if len(runs) == 0 {
			continue
		}
		s := DetectArmSummary{Arm: arm, Seeds: len(runs)}
		var ttdSum, ttrSum time.Duration
		var ttdN, ttrN int
		for _, r := range runs {
			if r.Onsets > 0 {
				s.DeadlockSeeds++
				if r.Recoveries > 0 {
					s.RecoveredSeeds++
				} else {
					s.UnrecoveredSeeds++
				}
			}
			if r.StillOpen {
				s.OpenAtEnd++
			}
			s.Detections += r.Detections
			s.FalsePositives += r.FalsePositives
			if r.Detections > 0 {
				ttdSum += r.MeanTTD
				ttdN++
				s.MaxTTD = max(s.MaxTTD, r.MaxTTD)
			}
			if r.Recoveries > 0 {
				ttrSum += r.MeanTTR
				ttrN++
				s.MaxTTR = max(s.MaxTTR, r.MaxTTR)
			}
			s.MeanGoodputGbps += r.GoodputGbps
			s.SacrificedPackets += r.Drops.DetectMitigation + r.Drops.RecoveryFlush
			s.LosslessDrops += r.Watchdog.LosslessDrops
		}
		if ttdN > 0 {
			s.MeanTTD = ttdSum / time.Duration(ttdN)
		}
		if ttrN > 0 {
			s.MeanTTR = ttrSum / time.Duration(ttrN)
		}
		s.MeanGoodputGbps /= float64(len(runs))
		out = append(out, s)
	}
	return out
}

// CheckDetectMatrix is the matrix's verdict, the four-arm invariants the
// experiment exists to show: the Tagger arm never deadlocks and its
// ride-along detector never fires, the detect arm clears every seed's
// deadlocks within a 5ms mean time-to-recover, the unprotected control
// deadlocks on every seed, and no arm violates the lossless invariant.
// `taggersim -exp detect` returns it and `make detect-smoke` gates on it.
func CheckDetectMatrix(sums []DetectArmSummary) error {
	for _, s := range sums {
		switch {
		case s.Arm == ArmTagger && s.DeadlockSeeds != 0:
			return fmt.Errorf("tagger arm deadlocked on %d seeds — prevention failed", s.DeadlockSeeds)
		case s.Arm == ArmTagger && s.Detections != 0:
			return fmt.Errorf("detector fired %d times on the Tagger-protected topology (false positives)", s.Detections)
		case s.Arm == ArmDetect && s.UnrecoveredSeeds != 0:
			return fmt.Errorf("detect arm never cleared a deadlock on %d seeds", s.UnrecoveredSeeds)
		case s.Arm == ArmDetect && s.DeadlockSeeds > 0 && s.MeanTTR > 5*time.Millisecond:
			return fmt.Errorf("detect arm mean time-to-recover %v exceeds the 5ms bound", s.MeanTTR)
		case s.Arm == ArmNone && s.DeadlockSeeds != s.Seeds:
			return fmt.Errorf("control arm deadlocked on only %d/%d seeds — scenario drifted", s.DeadlockSeeds, s.Seeds)
		case s.LosslessDrops != 0:
			return fmt.Errorf("%s arm violated the lossless invariant (%d drops)", s.Arm, s.LosslessDrops)
		}
	}
	return nil
}

// DetectMatrixTable renders the arm comparison. Goodput loss is
// relative to the Tagger arm (the prevention baseline the paper argues
// for); the column reads 0% for Tagger by construction.
func DetectMatrixTable(sums []DetectArmSummary) string {
	var base float64
	for _, s := range sums {
		if s.Arm == ArmTagger {
			base = s.MeanGoodputGbps
		}
	}
	t := telemetry.NewTable("Arm", "Seeds", "Deadlocked", "Recovered", "Never recov", "Open@end",
		"Detections", "FP", "Mean TTD", "Mean TTR", "Goodput", "Loss", "Sacrificed")
	for _, s := range sums {
		loss := "n/a"
		if base > 0 {
			loss = fmt.Sprintf("%.1f%%", 100*(base-s.MeanGoodputGbps)/base)
		}
		ttd, ttr := "-", "-"
		if s.Detections > 0 {
			ttd = s.MeanTTD.Round(time.Microsecond).String()
		}
		if s.MeanTTR > 0 {
			ttr = s.MeanTTR.Round(time.Microsecond).String()
		}
		t.AddRow(string(s.Arm), s.Seeds, s.DeadlockSeeds, s.RecoveredSeeds, s.UnrecoveredSeeds,
			s.OpenAtEnd, s.Detections, s.FalsePositives, ttd, ttr,
			fmt.Sprintf("%.1f Gbps", s.MeanGoodputGbps), loss, s.SacrificedPackets)
	}
	return t.String()
}
