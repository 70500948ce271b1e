package controller

import (
	"fmt"
	"time"

	"repro/internal/deploy"
)

// SwitchAgent is the controller's RPC surface to the rule agents running
// on the switches. A production deployment backs it with the switch
// vendor's config channel; tests back it with in-memory fabrics,
// including the chaos package's unreliable one.
//
// The protocol is staged two-phase: Install writes a full SwitchBundle
// into the switch's STAGED slot (never touching live forwarding), Fetch
// reads the staged slot back for verification, and Activate atomically
// promotes STAGED to ACTIVE. Delta deploys (the churn controller's pushes
// and every Reconcile) read the ACTIVE table with FetchActive, the ground
// truth deltas are computed against, and stage with Patch, which applies
// a delta to a copy of the active table. All five calls are idempotent —
// Patch recomputes from ACTIVE on every call — so the controller can
// blindly re-issue one after a lost reply or a partial write.
//
// Every call may fail: agents are unreliable by assumption (timeouts,
// reboots, partial writes). Errors carry no retryability contract — the
// controller retries everything with capped backoff and gives up after
// MaxAttempts.
type SwitchAgent interface {
	// Install stages b on the named switch, replacing any prior staged
	// bundle wholesale.
	Install(sw string, b deploy.SwitchBundle) error
	// Fetch returns the currently staged bundle for readback verification.
	Fetch(sw string) (deploy.SwitchBundle, error)
	// Activate promotes the staged bundle to active atomically.
	Activate(sw string) error
	// FetchActive returns the currently active bundle on the switch.
	FetchActive(sw string) (deploy.SwitchBundle, error)
	// Patch stages ApplyDelta(active, d) on the switch.
	Patch(sw string, d deploy.SwitchDiff) error
}

// loopbackAgent is the default perfectly-reliable in-process agent; it
// preserves the pre-chaos controller behavior (installs always succeed).
type loopbackAgent struct {
	staged map[string]deploy.SwitchBundle
	active map[string]deploy.SwitchBundle
}

func newLoopbackAgent() *loopbackAgent {
	return &loopbackAgent{
		staged: make(map[string]deploy.SwitchBundle),
		active: make(map[string]deploy.SwitchBundle),
	}
}

func (a *loopbackAgent) Install(sw string, b deploy.SwitchBundle) error {
	a.staged[sw] = cloneSwitchBundle(b)
	return nil
}

func (a *loopbackAgent) Fetch(sw string) (deploy.SwitchBundle, error) {
	return cloneSwitchBundle(a.staged[sw]), nil
}

func (a *loopbackAgent) Activate(sw string) error {
	a.active[sw] = cloneSwitchBundle(a.staged[sw])
	return nil
}

func (a *loopbackAgent) FetchActive(sw string) (deploy.SwitchBundle, error) {
	return cloneSwitchBundle(a.active[sw]), nil
}

func (a *loopbackAgent) Patch(sw string, d deploy.SwitchDiff) error {
	a.staged[sw] = deploy.ApplyDelta(a.active[sw], d)
	return nil
}

// cloneSwitchBundle deep-copies a bundle so agent state cannot alias the
// controller's.
func cloneSwitchBundle(b deploy.SwitchBundle) deploy.SwitchBundle {
	return deploy.SwitchBundle{Rules: append([]deploy.RuleJSON(nil), b.Rules...)}
}

// DeployConfig tunes the fault-tolerant push pipeline.
type DeployConfig struct {
	// MaxAttempts bounds tries per RPC phase per switch (minimum 1).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each further retry
	// doubles it, capped at MaxBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth.
	MaxBackoff time.Duration
	// JitterSeed seeds the deterministic +/-25% backoff jitter (a function
	// of seed, switch, op and attempt), so a fixed seed reproduces the
	// exact retry timeline.
	JitterSeed int64
	// Sleep, when non-nil, is called with each backoff delay (production
	// sets time.Sleep). Nil keeps the pipeline virtual-time only: delays
	// are computed, logged and audited but not slept, which is what the
	// deterministic tests and the simulator want.
	Sleep func(time.Duration)
	// Parallel bounds how many switches each phase of a push or a
	// reconcile round drives concurrently (0 or 1: inline, no goroutines).
	// It changes wall-clock time only: the audit log, the counters and
	// the fabric end up the same for every value (see push).
	Parallel int
}

// DefaultDeployConfig returns the pipeline parameters used by the
// examples and the chaos soak: up to 6 tries per RPC, 10ms..1s backoff.
func DefaultDeployConfig() DeployConfig {
	return DeployConfig{
		MaxAttempts: 6,
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  time.Second,
		JitterSeed:  1,
	}
}

// Deployment phase names, used in audit entries and metrics counters.
const (
	OpInstall     = "install"
	OpVerify      = "verify"
	OpActivate    = "activate"
	OpRollback    = "rollback"
	OpFetchActive = "fetch-active"
	OpPatch       = "patch"
	OpDelta       = "delta" // per-push summary entry, not an RPC
)

// AuditEntry records one RPC attempt of the deployment pipeline. The
// sequence of entries for a fixed JitterSeed and fault schedule is
// byte-for-byte deterministic.
type AuditEntry struct {
	// Seq is the global attempt index within this controller.
	Seq int
	// Switch names the target switch.
	Switch string
	// Op is one of OpInstall, OpVerify, OpActivate, OpRollback ("rollback"
	// entries are re-activations of the previous verified bundle).
	Op string
	// Attempt counts tries of this op on this switch within one push,
	// starting at 1.
	Attempt int
	// Err is the failure ("" on success).
	Err string
	// Backoff is the delay scheduled before the next attempt (zero when
	// the attempt succeeded or the pipeline gave up).
	Backoff time.Duration
	// Note carries free-form detail for non-RPC entries (e.g. the OpDelta
	// per-push stats summary); "" for plain attempts.
	Note string
}

// String renders one audit line.
func (e AuditEntry) String() string {
	out := fmt.Sprintf("#%d %s %s attempt %d", e.Seq, e.Switch, e.Op, e.Attempt)
	if e.Err == "" {
		out += ": ok"
	} else {
		out += ": " + e.Err
		if e.Backoff > 0 {
			out += fmt.Sprintf(" (retry in %v)", e.Backoff)
		}
	}
	if e.Note != "" {
		out += " [" + e.Note + "]"
	}
	return out
}
