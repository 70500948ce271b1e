package controller

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/deploy"
	"repro/internal/telemetry"
)

// SwitchAgent is the controller's RPC surface to the rule agents running
// on the switches. A production deployment backs it with the switch
// vendor's config channel; tests back it with in-memory fabrics,
// including the chaos package's unreliable one.
//
// The protocol is staged two-phase: Install writes a full SwitchBundle
// into the switch's STAGED slot (never touching live forwarding), Fetch
// reads the staged slot back for verification, and Activate atomically
// promotes STAGED to ACTIVE. All three calls are idempotent, so the
// controller can blindly re-issue one after a lost reply.
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
	// JitterSeed seeds the deterministic +/-25% backoff jitter, so a fixed
	// seed reproduces the exact retry timeline.
	JitterSeed int64
	// Sleep, when non-nil, is called with each backoff delay (production
	// sets time.Sleep). Nil keeps the pipeline virtual-time only: delays
	// are computed, logged and audited but not slept, which is what the
	// deterministic tests and the simulator want.
	Sleep func(time.Duration)
	// ReconcileRounds bounds how many fetch-diff-patch sweeps Reconcile
	// makes before declaring the fabric divergent (minimum 1; 0 means the
	// default of 3).
	ReconcileRounds int
	// Parallel bounds how many switches each push phase drives
	// concurrently (0 or 1: the classic serial pipeline). The parallel
	// path batches switches into identical-bundle groups
	// (deploy.GroupIdentical) and gives every switch its own
	// deterministic jitter stream, so the audit log stays reproducible
	// for a fixed fault schedule: entries are merged in group-then-name
	// order, not arrival order.
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

// rpcCtx is one deployment pipeline's execution context: the agent, the
// retry policy, a jitter stream and an audit buffer. The serial pipeline
// uses a single context backed by the controller's shared jitter; the
// parallel fan-out gives every switch its own context (and its own
// deterministically-seeded jitter stream), then merges the buffers in a
// scheduling-independent order. Entries are buffered with Seq unset;
// Controller.absorb assigns global sequence numbers at merge time.
type rpcCtx struct {
	agent  SwitchAgent
	cfg    DeployConfig
	tel    *telemetry.Registry
	jitter *rand.Rand
	log    []AuditEntry
}

// backoffFor returns the capped exponential delay before retrying after
// the attempt-th failure (attempt >= 1), with seeded +/-25% jitter.
func (x *rpcCtx) backoffFor(attempt int) time.Duration {
	d := x.cfg.BaseBackoff
	if d <= 0 {
		d = time.Millisecond
	}
	for i := 1; i < attempt; i++ {
		d *= 2
		if x.cfg.MaxBackoff > 0 && d >= x.cfg.MaxBackoff {
			d = x.cfg.MaxBackoff
			break
		}
	}
	if x.cfg.MaxBackoff > 0 && d > x.cfg.MaxBackoff {
		d = x.cfg.MaxBackoff
	}
	// Deterministic jitter in [0.75, 1.25).
	j := 0.75 + 0.5*x.jitter.Float64()
	return time.Duration(float64(d) * j)
}

// auditRecord buffers one entry and bumps the matching counters.
func (x *rpcCtx) auditRecord(sw, op string, attempt int, err error, backoff time.Duration) {
	e := AuditEntry{Switch: sw, Op: op, Attempt: attempt, Backoff: backoff}
	if err != nil {
		e.Err = err.Error()
		x.tel.Counter("deploy." + op + ".fail").Inc()
	} else {
		x.tel.Counter("deploy." + op + ".ok").Inc()
	}
	x.log = append(x.log, e)
}

// attempt runs fn up to MaxAttempts times with backoff between failures,
// auditing every try under the given op name. It returns the last error
// when every attempt failed.
func (x *rpcCtx) attempt(sw, op string, fn func() error) error {
	max := x.cfg.MaxAttempts
	if max < 1 {
		max = 1
	}
	var err error
	for try := 1; try <= max; try++ {
		err = fn()
		if err == nil {
			x.auditRecord(sw, op, try, nil, 0)
			x.tel.Gauge("deploy_last_attempts", "switch", sw, "op", op).Set(float64(try))
			if try > 1 {
				x.tel.Counter("deploy_retries_total", "switch", sw).Add(int64(try - 1))
			}
			return nil
		}
		var backoff time.Duration
		if try < max {
			backoff = x.backoffFor(try)
			x.tel.Counter("deploy.backoff_ns").Add(int64(backoff))
			if x.cfg.Sleep != nil {
				x.cfg.Sleep(backoff)
			}
		}
		x.auditRecord(sw, op, try, err, backoff)
	}
	x.tel.Counter("deploy.gave_up").Inc()
	x.tel.Gauge("deploy_last_attempts", "switch", sw, "op", op).Set(float64(max))
	x.tel.Counter("deploy_retries_total", "switch", sw).Add(int64(max - 1))
	return fmt.Errorf("controller: %s on %s failed after %d attempts: %w", op, sw, max, err)
}

// installVerify pushes one switch's bundle and confirms the staged
// readback matches. Each attempt is one install+verify round; any failure
// — a lost RPC, a partial install caught by the readback mismatch —
// triggers an idempotent re-push of the whole SwitchBundle after backoff.
func (x *rpcCtx) installVerify(sw string, want deploy.SwitchBundle) error {
	max := x.cfg.MaxAttempts
	if max < 1 {
		max = 1
	}
	var err error
	for try := 1; try <= max; try++ {
		op := OpInstall
		err = x.agent.Install(sw, want)
		if err == nil {
			x.auditRecord(sw, OpInstall, try, nil, 0)
			op = OpVerify
			var got deploy.SwitchBundle
			got, err = x.agent.Fetch(sw)
			if err == nil && !sameRules(got.Rules, want.Rules) {
				err = fmt.Errorf("staged bundle mismatch: %d/%d rules landed", len(got.Rules), len(want.Rules))
				x.tel.Counter("deploy.partial_detected").Inc()
			}
			if err == nil {
				x.auditRecord(sw, OpVerify, try, nil, 0)
				x.tel.Gauge("deploy_last_attempts", "switch", sw, "op", OpInstall).Set(float64(try))
				if try > 1 {
					x.tel.Counter("deploy_retries_total", "switch", sw).Add(int64(try - 1))
				}
				return nil
			}
		}
		var backoff time.Duration
		if try < max {
			backoff = x.backoffFor(try)
			x.tel.Counter("deploy.backoff_ns").Add(int64(backoff))
			if x.cfg.Sleep != nil {
				x.cfg.Sleep(backoff)
			}
		}
		x.auditRecord(sw, op, try, err, backoff)
	}
	x.tel.Counter("deploy.gave_up").Inc()
	x.tel.Gauge("deploy_last_attempts", "switch", sw, "op", OpInstall).Set(float64(max))
	x.tel.Counter("deploy_retries_total", "switch", sw).Add(int64(max - 1))
	return fmt.Errorf("controller: install on %s failed after %d attempts: %w", sw, max, err)
}

// rpc returns the serial pipeline context: shared jitter stream, shared
// telemetry, buffering into a fresh log absorbed by the caller.
func (c *Controller) rpc() *rpcCtx {
	return &rpcCtx{agent: c.agent, cfg: c.deployCfg, tel: c.tel, jitter: c.jitter}
}

// rpcFor returns an isolated pipeline context for one switch of a
// parallel push: same policy and telemetry, but a private jitter stream
// seeded from (JitterSeed, switch name) so the retry timeline of each
// switch is deterministic regardless of goroutine scheduling.
func (c *Controller) rpcFor(sw string) *rpcCtx {
	h := fnv.New64a()
	h.Write([]byte(sw))
	return &rpcCtx{
		agent:  c.agent,
		cfg:    c.deployCfg,
		tel:    c.tel,
		jitter: newJitter(c.deployCfg.JitterSeed ^ int64(h.Sum64())),
	}
}

// absorb appends a context's buffered audit entries to the controller
// log, assigning global sequence numbers.
func (c *Controller) absorb(x *rpcCtx) {
	for _, e := range x.log {
		e.Seq = c.auditSeq
		c.auditSeq++
		c.auditLog = append(c.auditLog, e)
	}
	x.log = x.log[:0]
}

// attempt is the serial-path retry wrapper (see rpcCtx.attempt).
func (c *Controller) attempt(sw, op string, fn func() error) error {
	x := c.rpc()
	err := x.attempt(sw, op, fn)
	c.absorb(x)
	return err
}

// installVerify is the serial-path wrapper (see rpcCtx.installVerify).
func (c *Controller) installVerify(sw string, want deploy.SwitchBundle) error {
	x := c.rpc()
	err := x.installVerify(sw, want)
	c.absorb(x)
	return err
}

// sameRules compares rule lists as multisets (agents may reorder). A
// readback of an untouched canonical table matches element for element,
// which settles it without building the multiset.
func sameRules(a, b []deploy.RuleJSON) bool {
	if len(a) != len(b) {
		return false
	}
	if slices.Equal(a, b) {
		return true
	}
	counts := make(map[deploy.RuleJSON]int, len(a))
	for _, r := range a {
		counts[r]++
	}
	for _, r := range b {
		if counts[r] == 0 {
			return false
		}
		counts[r]--
	}
	return true
}

// pushBundle deploys newBundle to the fabric with two-phase semantics:
//
//	phase 1: install + verify the staged bundle on every switch that
//	         needs changes (the live rules are untouched);
//	phase 2: activate switch by switch; if any activation exhausts its
//	         retries, re-install and re-activate the PREVIOUS verified
//	         bundle on every switch already flipped (rollback), so the
//	         fabric never keeps running a half-deployed rule set.
//
// Switches whose bundle is unchanged are skipped entirely — expansion
// stays incremental — unless forceAll re-pushes everything (Redeploy
// after a switch reboot). Called with c.mu held.
func (c *Controller) pushBundle(newBundle *deploy.Bundle, forceAll bool) error {
	push := c.tel.StartSpan("deploy/push")
	defer push.End()
	changed := c.changedSwitches(newBundle, forceAll)
	c.tel.Counter("deploy.pushes").Inc()
	if c.deployCfg.Parallel > 1 && len(changed) > 1 {
		return c.pushBundleParallel(push, newBundle, changed)
	}

	// Phase 1: stage everywhere. Failure here aborts with the active
	// fabric untouched (staged slots are inert).
	stage := push.Child("stage")
	for _, sw := range changed {
		if err := c.installVerify(sw, newBundle.Switches[sw]); err != nil {
			c.tel.Counter("deploy.aborted_staging").Inc()
			stage.End()
			return err
		}
	}
	stage.End()

	// Phase 2: flip. Track what flipped so we can roll back.
	activate := push.Child("activate")
	defer activate.End()
	var activated []string
	for _, sw := range changed {
		if err := c.attempt(sw, OpActivate, func() error {
			return c.agent.Activate(sw)
		}); err != nil {
			c.rollback(activated)
			return fmt.Errorf("controller: rolled back to previous bundle: %w", err)
		}
		activated = append(activated, sw)
	}
	return nil
}

// pushBundleParallel is pushBundle's bounded fan-out path. Switches are
// batched into identical-bundle groups (deploy.GroupIdentical) — on the
// symmetric fabrics Tagger targets most of the fleet shares a handful of
// distinct bundle bodies — and each phase drives up to Parallel switches
// concurrently. Two-phase semantics match the serial path: every switch
// is staged (staged slots are inert, so staging all before checking for
// failures is safe), any staging failure aborts with the active fabric
// untouched, and an exhausted activation rolls back every switch that
// already flipped. Each switch runs on its own rpcCtx with a
// deterministically-seeded jitter stream; audit buffers are absorbed in
// group-then-name order after each phase, so the log is reproducible for
// a fixed fault schedule no matter how goroutines interleave.
func (c *Controller) pushBundleParallel(push *telemetry.Span, newBundle *deploy.Bundle, changed []string) error {
	groups := deploy.GroupIdentical(newBundle, changed)
	c.tel.Gauge("deploy_push_groups").Set(float64(len(groups)))
	c.tel.Gauge("deploy_push_switches").Set(float64(len(changed)))

	ordered := make([]string, 0, len(changed))
	for _, gr := range groups {
		ordered = append(ordered, gr.Switches...)
	}
	ctxs := make(map[string]*rpcCtx, len(ordered))
	for _, sw := range ordered {
		ctxs[sw] = c.rpcFor(sw)
	}
	workers := c.deployCfg.Parallel
	if workers > len(ordered) {
		workers = len(ordered)
	}

	// runPhase applies fn to every switch with bounded concurrency and
	// returns the per-switch errors. Audit entries stay buffered in each
	// switch's rpcCtx until absorbAll.
	runPhase := func(fn func(x *rpcCtx, sw string) error) map[string]error {
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		var mu sync.Mutex
		errs := make(map[string]error)
		for _, sw := range ordered {
			wg.Add(1)
			sem <- struct{}{}
			go func(sw string) {
				defer wg.Done()
				defer func() { <-sem }()
				if err := fn(ctxs[sw], sw); err != nil {
					mu.Lock()
					errs[sw] = err
					mu.Unlock()
				}
			}(sw)
		}
		wg.Wait()
		return errs
	}
	absorbAll := func() {
		for _, sw := range ordered {
			c.absorb(ctxs[sw])
		}
	}
	firstErr := func(errs map[string]error) error {
		for _, sw := range ordered {
			if err := errs[sw]; err != nil {
				return err
			}
		}
		return nil
	}

	// Phase 1: stage everywhere. Failure aborts with the active fabric
	// untouched.
	stage := push.Child("stage")
	stageErrs := runPhase(func(x *rpcCtx, sw string) error {
		return x.installVerify(sw, newBundle.Switches[sw])
	})
	stage.End()
	absorbAll()
	if err := firstErr(stageErrs); err != nil {
		c.tel.Counter("deploy.aborted_staging").Inc()
		return err
	}

	// Phase 2: flip. Track what flipped so we can roll back.
	activate := push.Child("activate")
	defer activate.End()
	var actMu sync.Mutex
	var activated []string
	actErrs := runPhase(func(x *rpcCtx, sw string) error {
		err := x.attempt(sw, OpActivate, func() error {
			return c.agent.Activate(sw)
		})
		if err == nil {
			actMu.Lock()
			activated = append(activated, sw)
			actMu.Unlock()
		}
		return err
	})
	absorbAll()
	if err := firstErr(actErrs); err != nil {
		sort.Strings(activated)
		c.rollback(activated)
		return fmt.Errorf("controller: rolled back to previous bundle: %w", err)
	}
	return nil
}

// rollback re-stages and re-activates the previous verified bundle on the
// given switches. Rollback RPCs get the same retry/backoff treatment; a
// switch that refuses even the rollback is recorded (counter
// deploy.rollback.stuck) — operators must intervene, exactly as in a real
// fabric.
func (c *Controller) rollback(switches []string) {
	defer c.tel.StartSpan("deploy/rollback").End()
	c.tel.Counter("deploy.rollbacks").Inc()
	prev := &deploy.Bundle{Switches: map[string]deploy.SwitchBundle{}}
	if c.bundle != nil {
		prev = c.bundle
	}
	for _, sw := range switches {
		c.tel.Counter("deploy_rollbacks_total", "switch", sw).Inc()
		if err := c.installVerify(sw, prev.Switches[sw]); err != nil {
			c.tel.Counter("deploy.rollback.stuck").Inc()
			continue
		}
		if err := c.attempt(sw, OpRollback, func() error {
			return c.agent.Activate(sw)
		}); err != nil {
			c.tel.Counter("deploy.rollback.stuck").Inc()
		}
	}
}

// changedSwitches returns, in deterministic order, the switches whose
// bundle differs from the currently deployed one (every switch on the
// first push or when forced).
func (c *Controller) changedSwitches(newBundle *deploy.Bundle, forceAll bool) []string {
	var names []string
	if c.bundle == nil || forceAll {
		for sw := range newBundle.Switches {
			names = append(names, sw)
		}
	} else {
		for sw := range deploy.Diff(c.bundle, newBundle) {
			names = append(names, sw)
		}
	}
	sort.Strings(names)
	return names
}

// newJitter builds the seeded jitter source.
func newJitter(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}
