package sim

import "time"

// WatchdogStats is the tally of a continuous deadlock watchdog — the
// chaos-soak verdict. Unlike EnableRecovery it never intervenes; it only
// observes, so a run with Tagger installed can prove the negative
// ("nothing to detect, ever") while the same schedule without Tagger
// shows the pause-wait cycle forming.
type WatchdogStats struct {
	// Samples counts watchdog ticks taken.
	Samples int
	// DeadlockSamples counts ticks that observed a live pause-wait cycle.
	DeadlockSamples int
	// FirstDeadlock is the first observed cycle (nil if never).
	FirstDeadlock []string
	// FirstDeadlockAt is the sample time of that observation (-1 if never).
	FirstDeadlockAt time.Duration
	// LosslessDrops is the HeadroomViolation counter at the last sample —
	// the invariant that must stay zero under a correct configuration.
	LosslessDrops int64
	// RebootDrops is the SwitchReboot counter at the last sample: losses
	// that are expected under chaos and excluded from the invariant.
	RebootDrops int64
	// RecoveryDrops is the RecoveryFlush counter at the last sample:
	// packets the detect-and-break monitor deliberately sacrificed.
	// Accounted here so a soak's losses stay legible, excluded from the
	// invariant like RebootDrops.
	RecoveryDrops int64
	// MitigationDrops is the DetectMitigation counter at the last sample
	// — the in-switch detector's targeted sacrifices. Same contract.
	MitigationDrops int64
}

// StartWatchdog installs a continuous deadlock watchdog: every interval
// it samples DetectDeadlock and the drop counters into the returned
// stats, which update in place as the run progresses. Sampling rides the
// periodic-timer event kind, so it is deterministic with respect to the
// packet events it interleaves with and allocation-free per tick.
func (n *Network) StartWatchdog(interval time.Duration) *WatchdogStats {
	stats := &WatchdogStats{FirstDeadlockAt: -1}
	p := int64(interval)
	n.addTimer(timerRT{kind: timerWatchdog, period: p, wstats: stats}, n.now+p)
	return stats
}

// watchdogTick is one watchdog sample.
func (n *Network) watchdogTick(t *timerRT, slot int32) {
	stats := t.wstats
	stats.Samples++
	if cyc := n.detectCycleQueues(); cyc != nil {
		stats.DeadlockSamples++
		if stats.FirstDeadlock == nil {
			stats.FirstDeadlock = n.cycleStrings(cyc)
			stats.FirstDeadlockAt = time.Duration(n.now)
		}
	}
	stats.LosslessDrops = n.drops.HeadroomViolation
	stats.RebootDrops = n.drops.SwitchReboot
	stats.RecoveryDrops = n.drops.RecoveryFlush
	stats.MitigationDrops = n.drops.DetectMitigation
	n.schedule(event{at: n.now + t.period, kind: evTimer, arg: slot})
}
