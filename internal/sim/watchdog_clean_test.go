package sim

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/routing"
)

// TestWatchdogCleanExcludesRebootDrops pins the Clean() contract across a
// chaos schedule: packets a rebooting switch inherently loses land in
// RebootDrops and must NOT fail the soak invariant, while genuine lossless
// drops (HeadroomViolation) must. A regression that folds SwitchReboot
// into LosslessDrops — or stops sampling either counter — fails here.
// clean reports the chaos-soak verdict: no deadlock sample and no
// lossless drop.
func clean(w *WatchdogStats) bool {
	return w.DeadlockSamples == 0 && w.LosslessDrops == 0
}

func TestWatchdogCleanExcludesRebootDrops(t *testing.T) {
	c, _, n := testbedNet(t, routing.UpDown)
	g := c.Graph
	n.InstallTagger(core.ClosRules(g, 1, 1))
	// Cross traffic through both pods keeps queues occupied so each
	// reboot has packets to lose.
	n.AddFlow(FlowSpec{Name: "a", Src: g.MustLookup("H5"), Dst: g.MustLookup("H1")})
	n.AddFlow(FlowSpec{Name: "b", Src: g.MustLookup("H9"), Dst: g.MustLookup("H1")})
	n.AddFlow(FlowSpec{Name: "c", Src: g.MustLookup("H1"), Dst: g.MustLookup("H13")})

	wd := n.StartWatchdog(250 * time.Microsecond)
	var lost int64
	for i, sw := range []string{"T1", "L1", "T3"} {
		name := sw
		n.At(time.Duration(3+2*i)*time.Millisecond, func() {
			lost += n.RebootSwitch(g.MustLookup(name))
		})
	}
	n.Run(12 * time.Millisecond)

	if wd.Samples == 0 {
		t.Fatal("watchdog never sampled")
	}
	if lost == 0 {
		t.Fatal("chaos schedule lost no packets; scenario no longer exercises reboots")
	}
	if wd.RebootDrops != lost {
		t.Errorf("RebootDrops = %d, want %d", wd.RebootDrops, lost)
	}
	if wd.LosslessDrops != 0 {
		t.Errorf("reboot losses leaked into LosslessDrops: %d", wd.LosslessDrops)
	}
	if !clean(wd) {
		t.Errorf("Clean() = false for a reboot-only schedule: %+v", wd)
	}
}

// TestWatchdogCleanExcludesRecoveryFlush pins the attribution the
// detect-and-break monitor's sacrifices now get: every packet
// flushQueue discards lands in DropStats.RecoveryFlush (so Total
// balances and a "drop" trace event names the cause), is sampled into
// WatchdogStats.RecoveryDrops, and does NOT fail Clean() — a
// deliberate sacrifice is not a lossless-invariant violation. Before
// the fix these drops were counted only in RecoveryStats: invisible to
// the drop ledger, the trace, and the watchdog.
func TestWatchdogCleanExcludesRecoveryFlush(t *testing.T) {
	c, tb, n := testbedNet(t, routing.UpDown)
	g := c.Graph
	forceFig3Routes(c, tb)
	tr := &CountingTracer{}
	n.SetTracer(tr)
	rec := n.EnableRecovery(500 * time.Microsecond)
	wd := n.StartWatchdog(500 * time.Microsecond)
	n.AddFlow(FlowSpec{Name: "green", Src: g.MustLookup("H9"), Dst: g.MustLookup("H1")})
	n.AddFlow(FlowSpec{Name: "blue", Src: g.MustLookup("H2"), Dst: g.MustLookup("H13"),
		Start: time.Millisecond})
	n.Run(20 * time.Millisecond)

	if rec.Detections == 0 || rec.PacketsDropped == 0 {
		t.Fatalf("recovery never intervened (%+v); scenario no longer forms the Figure 3 CBD", rec)
	}
	d := n.Drops()
	if d.RecoveryFlush != rec.PacketsDropped {
		t.Errorf("DropStats.RecoveryFlush = %d, want %d (RecoveryStats.PacketsDropped)",
			d.RecoveryFlush, rec.PacketsDropped)
	}
	if d.Total() < d.RecoveryFlush {
		t.Errorf("Total() = %d omits the %d flush drops", d.Total(), d.RecoveryFlush)
	}
	if d.HeadroomViolation != 0 {
		t.Errorf("flush drops leaked into HeadroomViolation: %d", d.HeadroomViolation)
	}
	if wd.RecoveryDrops != d.RecoveryFlush {
		t.Errorf("watchdog sampled RecoveryDrops = %d, want %d", wd.RecoveryDrops, d.RecoveryFlush)
	}
	if wd.LosslessDrops != 0 {
		t.Errorf("flush drops leaked into LosslessDrops: %d", wd.LosslessDrops)
	}
	if !clean(wd) {
		t.Errorf("Clean() = false for a successful detect-and-break run: %+v", wd)
	}
	if got := tr.Counts["drop"]; got != rec.PacketsDropped {
		t.Errorf("trace saw %d drop events, want %d (one per flushed packet)", got, rec.PacketsDropped)
	}
}

// TestWatchdogDirtyOnLosslessDrops is the other half of the contract: the
// Figure 8a legacy-egress run genuinely drops lossless packets, and Clean
// must say so even though no deadlock ever forms.
func TestWatchdogDirtyOnLosslessDrops(t *testing.T) {
	n := fig8Setup(t, true)
	wd := n.StartWatchdog(250 * time.Microsecond)
	n.Run(20 * time.Millisecond)
	if wd.LosslessDrops == 0 {
		t.Fatal("legacy egress run had no lossless drops; fixture drifted")
	}
	if clean(wd) {
		t.Errorf("Clean() = true despite %d lossless drops", wd.LosslessDrops)
	}
}
