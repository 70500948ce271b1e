package sim

import (
	"math/rand"
	"time"
)

// DCQCNConfig parameterizes the simulator's DCQCN-lite congestion
// control (Zhu et al., SIGCOMM 2015 — the congestion control the paper's
// production RoCE runs; §6 discusses its relationship to Tagger: it
// reduces PAUSE generation but cannot prevent deadlocks, which is why
// Tagger exists).
//
// The model keeps DCQCN's architecture — RED-style ECN marking at egress
// queues, CNPs from the receiver NIC, multiplicative decrease and timed
// additive recovery at the sender — with simplified constants.
type DCQCNConfig struct {
	// KMin and KMax bound the RED marking ramp on egress queue depth.
	KMin, KMax int64
	// PMax is the marking probability at KMax.
	PMax float64
	// CNPInterval is the receiver's minimum gap between CNPs per flow.
	CNPInterval time.Duration
	// DecreaseFactor scales the rate on CNP arrival (DCQCN's 1 - alpha/2).
	DecreaseFactor float64
	// RecoveryInterval is the additive-increase timer.
	RecoveryInterval time.Duration
	// RecoveryStep is the additive rate increase per timer tick.
	RecoveryStep int64
	// MinRateBps floors the sending rate.
	MinRateBps int64
	// Seed drives the deterministic marking randomness.
	Seed int64
}

// DefaultDCQCN returns a configuration proportioned for the 40 GbE
// testbed fabric.
func DefaultDCQCN() DCQCNConfig {
	return DCQCNConfig{
		KMin:             32 << 10,
		KMax:             160 << 10,
		PMax:             0.2,
		CNPInterval:      50 * time.Microsecond,
		DecreaseFactor:   0.75,
		RecoveryInterval: 100 * time.Microsecond,
		RecoveryStep:     1_000_000_000, // 1 Gbps per tick
		MinRateBps:       100_000_000,
		Seed:             1,
	}
}

// dcqcnState is the simulator-wide congestion control runtime.
type dcqcnState struct {
	cfg DCQCNConfig
	rng *rand.Rand
	// CNPs counts congestion notifications delivered to senders.
	cnps int64
	// marks counts ECN-marked data packets.
	marks int64
}

// EnableDCQCN turns on congestion control for all flows: senders start at
// line rate and react to CNPs. Must be called before Run.
func (n *Network) EnableDCQCN(cfg DCQCNConfig) {
	n.dcqcn = &dcqcnState{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	for _, f := range n.flows {
		n.initFlowCC(f)
	}
}

// initFlowCC sets a flow's initial rate and registers its periodic
// recovery timer (a flow-addressed timerRT — no closure, no allocation
// per tick).
func (n *Network) initFlowCC(f *Flow) {
	if f.ccRate != 0 {
		return
	}
	f.ccRate = n.cfg.LinkBitsPerSec
	if f.spec.RateBps > 0 && f.spec.RateBps < f.ccRate {
		f.ccRate = f.spec.RateBps
	}
	period := int64(n.dcqcn.cfg.RecoveryInterval)
	n.addTimer(timerRT{kind: timerDCQCNRecovery, period: period, flow: f.idx}, n.now+period)
}

// dcqcnRecoveryTick is one additive-increase tick for a flow. A stopped
// flow simply does not reschedule; its timer slot is abandoned (bounded
// by the flow count).
func (n *Network) dcqcnRecoveryTick(t *timerRT, slot int32) {
	f := n.flows[t.flow]
	// Additive recovery toward line rate while the flow is active.
	if f.ccRate < n.cfg.LinkBitsPerSec {
		f.ccRate += n.dcqcn.cfg.RecoveryStep
		if f.ccRate > n.cfg.LinkBitsPerSec {
			f.ccRate = n.cfg.LinkBitsPerSec
		}
	}
	if f.spec.Stop == 0 || n.now < int64(f.spec.Stop) {
		n.schedule(event{at: n.now + t.period, kind: evTimer, arg: slot})
		// A rate increase may unblock the host scheduler.
		n.tryHostTx(int(f.spec.Src), 0)
	}
}

// maybeMarkECN applies RED marking against the target egress queue depth
// at enqueue time.
func (n *Network) maybeMarkECN(pk *packet, queueBytes int64) {
	if n.dcqcn == nil || pk.ecn {
		return
	}
	cfg := &n.dcqcn.cfg
	if queueBytes <= cfg.KMin {
		return
	}
	p := cfg.PMax
	if queueBytes < cfg.KMax {
		p = cfg.PMax * float64(queueBytes-cfg.KMin) / float64(cfg.KMax-cfg.KMin)
	}
	if n.dcqcn.rng.Float64() < p {
		pk.ecn = true
		n.dcqcn.marks++
	}
}

// handleECNDelivery runs at the receiving NIC: a marked packet triggers a
// CNP back to the sender (rate-limited per flow), which cuts the sender's
// rate after the reverse-path delay.
func (n *Network) handleECNDelivery(f *Flow) {
	if n.dcqcn == nil {
		return
	}
	cfg := &n.dcqcn.cfg
	if n.now-f.lastCNP < int64(cfg.CNPInterval) {
		return
	}
	f.lastCNP = n.now
	n.dcqcn.cnps++
	// CNPs ride the reverse path; model its latency as the forward span.
	// The rate cut lands as a flow-addressed evCNP — allocation-free even
	// under heavy marking.
	delay := 4 * int64(n.cfg.PropDelay)
	n.schedule(event{at: n.now + delay, kind: evCNP, arg: f.idx})
}

// applyCNP executes the multiplicative decrease when a CNP reaches the
// sender NIC.
func (n *Network) applyCNP(flow int32) {
	cfg := &n.dcqcn.cfg
	f := n.flows[flow]
	f.ccRate = int64(float64(f.ccRate) * cfg.DecreaseFactor)
	if f.ccRate < cfg.MinRateBps {
		f.ccRate = cfg.MinRateBps
	}
}
