// Package chaos is the deterministic fault-injection harness: a seeded
// generator of timed fault schedules (link flaps, switch reboots,
// control-channel pathologies, rule-install failures) and an unreliable
// in-memory switch-agent fabric driven by those schedules.
//
// Determinism contract: the same Config and seed produce byte-identical
// schedules, and a fabric replaying a schedule against the same RPC
// sequence produces the same outcomes — so every chaos soak verdict and
// every controller audit log is exactly reproducible from its seed.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// FaultKind discriminates the fault taxonomy.
type FaultKind int

const (
	// FaultLinkDown takes a link out of service at At.
	FaultLinkDown FaultKind = iota + 1
	// FaultLinkUp returns a link to service at At (generated paired with
	// FaultLinkDown — a flap).
	FaultLinkUp
	// FaultSwitchReboot power-cycles a switch: all queue/buffer state and
	// any staged or active agent rules are lost.
	FaultSwitchReboot
	// FaultRPCDrop loses one control-channel request: the op is not
	// applied and the caller sees a timeout.
	FaultRPCDrop
	// FaultRPCDelay delays one control-channel reply by Delay; the op IS
	// applied, and if Delay exceeds the agent's RPC timeout the caller
	// sees a timeout anyway — the idempotent-re-push case.
	FaultRPCDelay
	// FaultRPCDuplicate applies one control-channel request twice.
	FaultRPCDuplicate
	// FaultInstallTransient fails the next Count RPCs to a switch, then
	// recovers.
	FaultInstallTransient
	// FaultInstallPersistent is FaultInstallTransient with a count sized
	// to outlast a default retry budget.
	FaultInstallPersistent
	// FaultInstallPartial silently stages only a prefix of the pushed
	// SwitchBundle (Frac of its rules) while reporting success — the
	// failure mode readback verification exists for.
	FaultInstallPartial
	// FaultPass consumes one RPC without injecting anything — a spacer
	// that lets scripted tests aim a later fault at a specific RPC in the
	// install/fetch/activate sequence. Generate never emits it.
	FaultPass
)

// String names the kind for logs and audit output.
func (k FaultKind) String() string {
	switch k {
	case FaultLinkDown:
		return "link-down"
	case FaultLinkUp:
		return "link-up"
	case FaultSwitchReboot:
		return "switch-reboot"
	case FaultRPCDrop:
		return "rpc-drop"
	case FaultRPCDelay:
		return "rpc-delay"
	case FaultRPCDuplicate:
		return "rpc-duplicate"
	case FaultInstallTransient:
		return "install-transient"
	case FaultInstallPersistent:
		return "install-persistent"
	case FaultInstallPartial:
		return "install-partial"
	case FaultPass:
		return "pass"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Fault is one timed fault event. Fields beyond At/Kind are a union:
// link faults use A/B, switch-scoped faults use Switch plus the
// kind-specific parameters.
type Fault struct {
	At   time.Duration
	Kind FaultKind

	// A, B name the link endpoints for link faults.
	A, B string
	// Switch names the target for reboot/RPC/install faults.
	Switch string
	// Count is the number of consecutive failing RPCs for
	// transient/persistent install faults.
	Count int
	// Frac is the fraction of rules that land for a partial install.
	Frac float64
	// Delay is the reply delay for FaultRPCDelay.
	Delay time.Duration
}

// String renders one schedule line.
func (f Fault) String() string {
	switch f.Kind {
	case FaultLinkDown, FaultLinkUp:
		return fmt.Sprintf("%8v %s %s-%s", f.At, f.Kind, f.A, f.B)
	case FaultInstallTransient, FaultInstallPersistent:
		return fmt.Sprintf("%8v %s %s x%d", f.At, f.Kind, f.Switch, f.Count)
	case FaultInstallPartial:
		return fmt.Sprintf("%8v %s %s keep=%.0f%%", f.At, f.Kind, f.Switch, 100*f.Frac)
	case FaultPass:
		return fmt.Sprintf("%8v %s %s", f.At, "pass", f.Switch)
	case FaultRPCDelay:
		return fmt.Sprintf("%8v %s %s delay=%v", f.At, f.Kind, f.Switch, f.Delay)
	default:
		return fmt.Sprintf("%8v %s %s", f.At, f.Kind, f.Switch)
	}
}

// Schedule is a seeded, time-sorted fault plan.
type Schedule struct {
	Seed     int64
	Duration time.Duration
	Faults   []Fault
}

// Config parameterizes schedule generation.
type Config struct {
	// Duration is the soak horizon faults are placed within.
	Duration time.Duration
	// Links are the candidate links to flap, as endpoint name pairs.
	Links [][2]string
	// Switches are the candidate targets for reboots and agent faults.
	Switches []string
	// LinkFlaps, Reboots, InstallFaults and RPCFaults count how many of
	// each class to generate.
	LinkFlaps     int
	Reboots       int
	InstallFaults int
	RPCFaults     int
}

// rpcTimeoutHint scales generated RPC delays: they are drawn from
// [hint/2, 3*hint), so some exceed the timeout and some do not.
const rpcTimeoutHint = 50 * time.Millisecond

// Generate produces the deterministic fault schedule for (cfg, seed). A
// flap's outage lasts between Duration/8 and Duration/3.
func Generate(cfg Config, seed int64) Schedule {
	rng := rand.New(rand.NewSource(seed))
	if cfg.Duration <= 0 {
		cfg.Duration = 40 * time.Millisecond
	}

	var faults []Fault
	between := func(lo, hi time.Duration) time.Duration {
		if hi <= lo {
			return lo
		}
		return lo + time.Duration(rng.Int63n(int64(hi-lo)))
	}

	for i := 0; i < cfg.LinkFlaps && len(cfg.Links) > 0; i++ {
		l := cfg.Links[rng.Intn(len(cfg.Links))]
		down := between(cfg.Duration/20, cfg.Duration*7/10)
		dur := between(cfg.Duration/8, cfg.Duration/3)
		up := down + dur
		if lim := cfg.Duration * 19 / 20; up > lim {
			up = lim
		}
		faults = append(faults,
			Fault{At: down, Kind: FaultLinkDown, A: l[0], B: l[1]},
			Fault{At: up, Kind: FaultLinkUp, A: l[0], B: l[1]})
	}
	for i := 0; i < cfg.Reboots && len(cfg.Switches) > 0; i++ {
		faults = append(faults, Fault{
			At:     between(cfg.Duration/10, cfg.Duration*4/5),
			Kind:   FaultSwitchReboot,
			Switch: cfg.Switches[rng.Intn(len(cfg.Switches))],
		})
	}
	for i := 0; i < cfg.InstallFaults && len(cfg.Switches) > 0; i++ {
		f := Fault{
			At:     between(0, cfg.Duration*4/5),
			Switch: cfg.Switches[rng.Intn(len(cfg.Switches))],
		}
		switch rng.Intn(3) {
		case 0:
			f.Kind, f.Count = FaultInstallTransient, 1+rng.Intn(3)
		case 1:
			f.Kind, f.Count = FaultInstallPersistent, 8+rng.Intn(8)
		default:
			f.Kind, f.Frac = FaultInstallPartial, 0.1+0.8*rng.Float64()
		}
		faults = append(faults, f)
	}
	for i := 0; i < cfg.RPCFaults && len(cfg.Switches) > 0; i++ {
		f := Fault{
			At:     between(0, cfg.Duration*4/5),
			Switch: cfg.Switches[rng.Intn(len(cfg.Switches))],
		}
		switch rng.Intn(3) {
		case 0:
			f.Kind = FaultRPCDrop
		case 1:
			f.Kind, f.Delay = FaultRPCDelay, between(rpcTimeoutHint/2, 3*rpcTimeoutHint)
		default:
			f.Kind = FaultRPCDuplicate
		}
		faults = append(faults, f)
	}

	sort.SliceStable(faults, func(i, j int) bool { return faults[i].At < faults[j].At })
	return Schedule{Seed: seed, Duration: cfg.Duration, Faults: faults}
}

// Reboots returns only the switch-reboot events, in time order.
func (s Schedule) Reboots() []Fault {
	var out []Fault
	for _, f := range s.Faults {
		if f.Kind == FaultSwitchReboot {
			out = append(out, f)
		}
	}
	return out
}

// AgentFaults returns the control-channel and install faults, in time
// order — the subset a Fabric consumes.
func (s Schedule) AgentFaults() []Fault {
	var out []Fault
	for _, f := range s.Faults {
		switch f.Kind {
		case FaultRPCDrop, FaultRPCDelay, FaultRPCDuplicate,
			FaultInstallTransient, FaultInstallPersistent, FaultInstallPartial,
			FaultSwitchReboot:
			out = append(out, f)
		}
	}
	return out
}

// String renders the whole schedule, one fault per line.
func (s Schedule) String() string {
	out := fmt.Sprintf("chaos schedule seed=%d duration=%v (%d faults)\n", s.Seed, s.Duration, len(s.Faults))
	for _, f := range s.Faults {
		out += "  " + f.String() + "\n"
	}
	return out
}
