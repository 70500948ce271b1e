package sim

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/routing"
)

// TestRebootSwitchAccounting: a reboot mid-traffic drops queued packets
// into the SwitchReboot counter, resumes any upstream it had paused, and
// leaves the buffer accounting consistent — the fabric keeps flowing and
// never trips the lossless-drop invariant afterwards.
func TestRebootSwitchAccounting(t *testing.T) {
	c, _, n := testbedNet(t, routing.UpDown)
	g := c.Graph
	// A 2:1 incast through T1 keeps its queues occupied so the reboot
	// has something to lose.
	n.AddFlow(FlowSpec{Name: "a", Src: g.MustLookup("H5"), Dst: g.MustLookup("H1")})
	n.AddFlow(FlowSpec{Name: "b", Src: g.MustLookup("H9"), Dst: g.MustLookup("H1")})

	var lost int64
	n.At(3*time.Millisecond, func() {
		lost = n.RebootSwitch(g.MustLookup("T1"))
	})
	n.Run(10 * time.Millisecond)

	d := n.Drops()
	if lost == 0 || d.SwitchReboot != lost {
		t.Errorf("reboot lost %d packets, counter says %d", lost, d.SwitchReboot)
	}
	if d.HeadroomViolation != 0 {
		t.Errorf("reboot caused %d headroom violations", d.HeadroomViolation)
	}
	// The incast must keep delivering after the reboot: no wedged pause.
	rt := n.rt(g.MustLookup("T1"))
	if rt.bufferUsed < 0 {
		t.Errorf("negative buffer occupancy after reboot: %d", rt.bufferUsed)
	}
	for _, f := range n.flows {
		if f.MeanGbps(6*time.Millisecond, 10*time.Millisecond) <= 0 {
			t.Errorf("flow %s stalled after the reboot", f.Name())
		}
	}
}

// TestRebootClosesDeadlockEpisode: rebooting a member of the Figure 3
// cycle empties its queues and breaks the deadlock at that instant, so
// the episode tracker must close it then — not one PropDelay later, when
// the reboot's RESUMEs land — and charge a TTR that ends at the reboot.
func TestRebootClosesDeadlockEpisode(t *testing.T) {
	n := fig3Deadlock(t, false)
	track := n.TrackDeadlocks()
	l3 := n.g.MustLookup("L3")
	const at = 20 * time.Millisecond
	n.At(at, func() {
		if !n.Deadlocked() || !track.Open() || track.Onsets != 1 {
			t.Fatalf("no live Figure 3 deadlock to break: deadlocked %v, open %v, %d onsets", n.Deadlocked(), track.Open(), track.Onsets)
		}
		n.RebootSwitch(l3)
		if n.Deadlocked() {
			t.Fatal("rebooting L3 left the cycle standing")
		}
		if track.Open() != n.Deadlocked() {
			t.Errorf("after the reboot: track open %v, Deadlocked %v", track.Open(), n.Deadlocked())
		}
		if want := at - track.FirstOnsetAt; track.Recoveries != 1 || track.SumTTR != want {
			t.Errorf("after the reboot: %d recoveries, TTR %v, want 1 ending at the reboot (%v)", track.Recoveries, track.SumTTR, want)
		}
	})
	n.Run(at + time.Millisecond)
}

func TestRebootHostPanics(t *testing.T) {
	c, _, n := testbedNet(t, routing.UpDown)
	defer func() {
		if recover() == nil {
			t.Fatal("RebootSwitch on a host did not panic")
		}
	}()
	n.RebootSwitch(c.Graph.MustLookup("H1"))
}

// TestWatchdogObservesDeadlock: the watchdog sees the Figure 3 CBD form
// and records its first observation; on a healthy run it stays clean.
func TestWatchdogObservesDeadlock(t *testing.T) {
	s := fig3Deadlock(t, false)
	wd := s.StartWatchdog(250 * time.Microsecond)
	s.Run(20 * time.Millisecond)
	if wd.DeadlockSamples == 0 || wd.FirstDeadlock == nil {
		t.Fatalf("watchdog missed the deadlock: %+v", wd)
	}
	if wd.FirstDeadlockAt <= 0 {
		t.Errorf("FirstDeadlockAt = %v", wd.FirstDeadlockAt)
	}
	if clean(wd) {
		t.Error("Clean() true despite deadlock samples")
	}

	healthy := fig3Deadlock(t, true)
	cwd := healthy.StartWatchdog(250 * time.Microsecond)
	healthy.Run(20 * time.Millisecond)
	if !clean(cwd) || cwd.Samples == 0 {
		t.Errorf("Tagger run not clean: %+v", cwd)
	}
}

// fig3Deadlock builds the Figure 3 1-bounce CBD over forced routes (the
// same fixture the recovery tests use).
func fig3Deadlock(t *testing.T, withTagger bool) *Network {
	t.Helper()
	c, tb, n := testbedNet(t, routing.UpDown)
	g := c.Graph
	forceFig3Routes(c, tb)
	if withTagger {
		n.InstallTagger(core.ClosRules(g, 1, 1))
	}
	n.AddFlow(FlowSpec{Name: "green", Src: g.MustLookup("H9"), Dst: g.MustLookup("H1")})
	n.AddFlow(FlowSpec{Name: "blue", Src: g.MustLookup("H2"), Dst: g.MustLookup("H13"),
		Start: time.Millisecond})
	return n
}
