package tagger

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// TestDetectMatrixSmoke is the CI gate (`make detect-smoke`): a small
// four-arm matrix whose invariants are the experiment's whole point —
// the Tagger arm prevents (zero deadlocks, and its ride-along detector
// with mitigation off never fires: the false-positive oracle), the
// detect arm recovers every deadlock it sees within a bounded
// time-to-recover, the scan arm also recovers (slower cadence), and
// the unprotected control deadlocks on every seed and never recovers.
// The verdict itself is CheckDetectMatrix — the same function
// `taggersim -exp detect` returns — so the two gates cannot drift; what
// is asserted here on top are the smoke's stricter extras.
func TestDetectMatrixSmoke(t *testing.T) {
	seeds := sweep.Seeds(1, 6)
	matrix, err := DetectMatrix(seeds, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sums := SummarizeDetectMatrix(matrix)
	if len(sums) != 4 {
		t.Fatalf("got %d arm summaries, want 4", len(sums))
	}
	if err := CheckDetectMatrix(sums); err != nil {
		t.Error(err)
	}
	for _, s := range sums {
		if s.Seeds != len(seeds) {
			t.Errorf("%s: %d seeds, want %d", s.Arm, s.Seeds, len(seeds))
		}
		switch s.Arm {
		case ArmTagger:
			if s.FalsePositives != 0 {
				t.Errorf("detector false-fired on the protected topology: %d FPs", s.FalsePositives)
			}
			if s.SacrificedPackets != 0 {
				t.Errorf("tagger arm sacrificed %d packets with nothing to mitigate", s.SacrificedPackets)
			}
		case ArmDetect:
			if s.DeadlockSeeds != len(seeds) {
				t.Errorf("detect arm saw deadlock on %d/%d seeds; scenario drifted", s.DeadlockSeeds, len(seeds))
			}
			if s.Detections == 0 {
				t.Error("detect arm recovered without detections")
			}
			if s.MeanTTD <= 0 || s.MeanTTD > 2*time.Millisecond {
				t.Errorf("mean time-to-detect = %v, want (0, 2ms]", s.MeanTTD)
			}
			if s.MeanTTR <= 0 {
				t.Errorf("mean time-to-recover = %v, want > 0", s.MeanTTR)
			}
		case ArmScan:
			if s.UnrecoveredSeeds != 0 {
				t.Errorf("scan arm never cleared a deadlock on %d seeds", s.UnrecoveredSeeds)
			}
			if s.SacrificedPackets == 0 {
				t.Error("scan arm recovered without flushing anything")
			}
		case ArmNone:
			if s.RecoveredSeeds != 0 {
				t.Errorf("control recovered on %d seeds with no protection installed", s.RecoveredSeeds)
			}
		}
	}
	// The headline ordering: prevention beats both reactive arms on
	// goodput, and every protected arm beats nothing wouldn't hold (the
	// reactive arms pay for recovery in sacrificed packets), so pin only
	// the prevention win.
	byArm := map[DetectArm]DetectArmSummary{}
	for _, s := range sums {
		byArm[s.Arm] = s
	}
	if tg, dt := byArm[ArmTagger], byArm[ArmDetect]; tg.MeanGoodputGbps <= dt.MeanGoodputGbps {
		t.Errorf("tagger goodput %.1f <= detect goodput %.1f; prevention lost its headline",
			tg.MeanGoodputGbps, dt.MeanGoodputGbps)
	}
	if table := DetectMatrixTable(sums); table == "" {
		t.Error("empty matrix table")
	}
}

// TestDetectMatrixParDeterminism is the matrix's par-independence
// contract, run under -race by `make determinism`: fanning the seeded
// runs across workers changes wall-clock only — per-cell results and
// the merged telemetry are identical to the serial sweep.
func TestDetectMatrixParDeterminism(t *testing.T) {
	seeds := sweep.Seeds(1, 3)
	serialReg := telemetry.NewRegistry()
	serial, err := DetectMatrix(seeds, RunOptions{Par: 1, Ops: serialReg})
	if err != nil {
		t.Fatal(err)
	}
	parReg := telemetry.NewRegistry()
	par, err := DetectMatrix(seeds, RunOptions{Par: 4, Ops: parReg})
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range DetectArms() {
		if !reflect.DeepEqual(serial[arm], par[arm]) {
			t.Errorf("arm %s: par=4 results diverge from par=1:\n%+v\n%+v",
				arm, serial[arm], par[arm])
		}
	}
	sa, sb := serialReg.Snapshot(), parReg.Snapshot()
	if ca, cb := dropSpanCounters(sa.Counters), dropSpanCounters(sb.Counters); !reflect.DeepEqual(ca, cb) {
		t.Errorf("merged counters diverge between par=1 and par=4:\n%+v\n%+v", ca, cb)
	}
}

// TestCheckDetectMatrixVerdicts feeds the verdict synthetic summaries:
// a healthy matrix passes, and each broken invariant is named.
func TestCheckDetectMatrixVerdicts(t *testing.T) {
	healthy := func() []DetectArmSummary {
		return []DetectArmSummary{
			{Arm: ArmTagger, Seeds: 4},
			{Arm: ArmDetect, Seeds: 4, DeadlockSeeds: 4, RecoveredSeeds: 4, MeanTTR: 200 * time.Microsecond},
			{Arm: ArmScan, Seeds: 4, DeadlockSeeds: 4, RecoveredSeeds: 4},
			{Arm: ArmNone, Seeds: 4, DeadlockSeeds: 4, UnrecoveredSeeds: 4},
		}
	}
	if err := CheckDetectMatrix(healthy()); err != nil {
		t.Fatalf("healthy matrix rejected: %v", err)
	}
	for _, c := range []struct {
		name    string
		breakIt func(s []DetectArmSummary)
		want    string
	}{
		{"tagger deadlock", func(s []DetectArmSummary) { s[0].DeadlockSeeds = 1 }, "prevention failed"},
		{"false positive", func(s []DetectArmSummary) { s[0].Detections = 3 }, "false positives"},
		{"detect never recovers", func(s []DetectArmSummary) { s[1].UnrecoveredSeeds = 2 }, "never cleared"},
		{"detect too slow", func(s []DetectArmSummary) { s[1].MeanTTR = 6 * time.Millisecond }, "exceeds the 5ms bound"},
		{"control survives", func(s []DetectArmSummary) { s[3].DeadlockSeeds = 3 }, "scenario drifted"},
		{"lossless drop", func(s []DetectArmSummary) { s[2].LosslessDrops = 1 }, "scan arm violated the lossless invariant"},
	} {
		sums := healthy()
		c.breakIt(sums)
		if err := CheckDetectMatrix(sums); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: verdict = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}
