package sim

import "time"

// Config holds the fabric-wide physical and PFC parameters. The defaults
// mirror the paper's testbed: 40 GbE links, shallow shared buffers, and
// PFC thresholds small enough that sustained congestion pauses upstream
// within tens of microseconds.
type Config struct {
	// LinkBitsPerSec is the rate of every link (hosts included).
	LinkBitsPerSec int64
	// PropDelay is the one-way propagation delay of every link; PFC
	// frames experience the same delay.
	PropDelay time.Duration
	// MTU is the fixed packet size in bytes (RoCE traffic is MTU-sized
	// under sustained transfer).
	MTU int
	// PFC thresholds per lossless ingress queue.
	PFC PFCConfig
	// LossyCap bounds each lossy egress queue in bytes; beyond it lossy
	// packets drop (that is the point of the lossy class).
	LossyCap int64
	// MaxPriority is the highest lossless priority (tag) in use. Queues
	// are sized MaxPriority+1, with index 0 the lossy queue. The PFC
	// standard allows at most 8.
	MaxPriority int
	// DefaultTTL stamps packets at the source; 64 matches the paper's
	// measurement methodology (§3.2).
	DefaultTTL int
	// SampleInterval is the throughput-series bucket width.
	SampleInterval time.Duration

	// DynamicThreshold enables Broadcom-style dynamic Xoff: the effective
	// pause threshold is min(PFC.XoffThreshold, DTAlpha x free shared
	// buffer). As a switch's buffer fills, thresholds collapse, pauses
	// lengthen, and pause cascades become self-reinforcing — the
	// mechanism by which CBDs actually lock up in production (§3.3: "all
	// queues share a single memory pool").
	DynamicThreshold bool
	// DTAlpha is the dynamic-threshold proportionality factor.
	DTAlpha float64
	// SwitchBuffer is the shared packet buffer per switch in bytes.
	SwitchBuffer int64
	// XonGap is the hysteresis below the effective threshold at which
	// RESUME is sent.
	XonGap int64

	// StrictPriority selects strict-priority egress scheduling (highest
	// lossless queue first, lossy last) instead of the default round-robin
	// — both are real ASIC modes. Under strict priority, sustained
	// high-priority load starves the lossy class entirely.
	StrictPriority bool
}

// PFCConfig holds the IEEE 802.1Qbb thresholds of one lossless ingress
// queue, in bytes of ingress occupancy. A priority's ingress counter
// crossing XoffThreshold emits PAUSE upstream; falling to XonThreshold
// emits RESUME. Headroom is the buffer reserved above Xoff to absorb
// in-flight data while the PAUSE takes effect — sized by
// ComputeHeadroom, it is what guarantees zero loss.
type PFCConfig struct {
	XoffThreshold int64
	XonThreshold  int64
	Headroom      int64
}

// ComputeHeadroom returns the ingress headroom (bytes) a lossless
// priority needs on a link of the given rate and one-way propagation
// delay, following the standard worst-case accounting (§2 of the paper:
// "sufficient headroom to buffer packets that are in flight during the
// time it takes for the PAUSE to take effect"):
//
//   - a maximum-size frame may have just started transmission upstream
//     when the threshold was crossed (one MTU),
//   - the PAUSE frame itself waits behind a frame in the worst case and
//     crosses the wire (one MTU + propagation),
//   - data already in flight keeps arriving for one round trip
//     (2 x delay x rate),
//   - the pause quantum granularity adds one more frame.
func ComputeHeadroom(linkBitsPerSec int64, oneWayDelay time.Duration, mtuBytes int64) int64 {
	bytesPerSec := linkBitsPerSec / 8
	inFlight := int64(float64(bytesPerSec) * (2 * oneWayDelay.Seconds()))
	return inFlight + 3*mtuBytes
}

// DefaultConfig returns the testbed-like parameters used by the
// experiment drivers.
func DefaultConfig() Config {
	return Config{
		LinkBitsPerSec: 40_000_000_000,
		PropDelay:      1 * time.Microsecond,
		MTU:            1024,
		PFC: PFCConfig{
			XoffThreshold: 64 << 10, // 64 KiB
			XonThreshold:  0,        // resume-on-empty: emulates the collapsed
			// dynamic-threshold regime of shared-buffer ASICs under load,
			// where deadlocks actually form (see DESIGN.md)
			Headroom: ComputeHeadroom(40_000_000_000, time.Microsecond, 1024),
		},
		LossyCap:       256 << 10,
		MaxPriority:    3,
		DefaultTTL:     64,
		SampleInterval: time.Millisecond,

		DynamicThreshold: false,
		DTAlpha:          0.25,
		SwitchBuffer:     512 << 10,
		XonGap:           16 << 10,
	}
}

// txTimeNs returns the serialization delay of size bytes.
func (c *Config) txTimeNs(size int) int64 {
	return int64(size) * 8 * 1_000_000_000 / c.LinkBitsPerSec
}
