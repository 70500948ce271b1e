package controller

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/deploy"
	"repro/internal/telemetry"
)

// step is one switch's share of a push: the table it should end up
// running, how to stage it, a private audit buffer, and what happened.
// Nothing a step does reads another step's state, and the agents keep
// per-switch state, so a step's outcome for a fixed fault schedule does
// not depend on when it runs relative to the others — which is why the
// engine may run steps on any number of workers.
type step struct {
	c    *Controller
	sw   string
	want deploy.SwitchBundle
	// delta stages by fetch-active + DeltaFor + patch instead of a
	// wholesale install.
	delta bool

	staged  bool               // a verified table waits in the staged slot
	flipped bool               // the staged table was activated
	err     error              // first give-up, in stage-then-flip order
	log     []AuditEntry       // Seq unset; Controller.absorb numbers them
	diff    *deploy.SwitchDiff // what staging changes on the switch, once known
}

// plan builds the steps of a push: one per named switch, ordered by name,
// each wanting that switch's table in b (the empty table when b has none).
func (c *Controller) plan(names []string, b *deploy.Bundle, delta bool) []step {
	slices.Sort(names)
	steps := make([]step, len(names))
	// A phase without retries audits at most three RPCs per switch; carve
	// those buffers from one array (a longer log grows on its own).
	const perStep = 3
	logs := make([]AuditEntry, perStep*len(names))
	for i, sw := range names {
		steps[i] = step{c: c, sw: sw, want: b.Switches[sw], delta: delta,
			log: logs[i*perStep : i*perStep : (i+1)*perStep]}
	}
	return steps
}

// push is the one deployment engine. Every phase runs on every step of
// the plan, on min(Parallel, len(plan)) workers (inline when that is at
// most one), and every decision is taken after the phase, in plan order —
// so the audit log, the counters and the fabric come out the same for any
// worker count.
//
// A two-phase push stages everywhere (the live rules are untouched — a
// staging give-up aborts with nothing to undo), then flips everywhere; if
// a flip gives up, every switch that did flip is re-staged with its
// previous verified table and flipped back, so the fabric never keeps
// running a half-deployed rule set. Otherwise the push flips each switch
// as soon as it is staged and reports per-step results only: that is a
// Reconcile round (the fabric is already divergent, convergence beats
// atomicity) and the rollback itself (flipOp OpRollback).
// Called with c.mu held.
func (c *Controller) push(span *telemetry.Span, plan []step, twoPhase bool, flipOp string) error {
	each := func(fn func(*step)) {
		workers := min(c.deployCfg.Parallel, len(plan))
		if workers <= 1 {
			for i := range plan {
				fn(&plan[i])
			}
		} else {
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := next.Add(1) - 1; i < int64(len(plan)); i = next.Add(1) - 1 {
						fn(&plan[i])
					}
				}()
			}
			wg.Wait()
		}
		for i := range plan {
			c.absorb(&plan[i])
		}
	}
	firstErr := func() error {
		for i := range plan {
			if plan[i].err != nil {
				return plan[i].err
			}
		}
		return nil
	}

	if !twoPhase {
		each(func(s *step) {
			if s.stage(); s.staged {
				s.flip(flipOp)
			}
		})
		return firstErr()
	}

	stage := span.Child("stage")
	each((*step).stage)
	stage.End()
	if err := firstErr(); err != nil {
		c.tel.Counter("deploy.aborted_staging").Inc()
		return err
	}

	activate := span.Child("activate")
	defer activate.End()
	each(func(s *step) {
		if s.staged {
			s.flip(flipOp)
		}
	})
	err := firstErr()
	if err == nil {
		return nil
	}

	// Roll back: a switch that refuses even this is recorded (counter
	// deploy.rollback.stuck) — operators must intervene, exactly as in a
	// real fabric.
	defer c.tel.StartSpan("deploy/rollback").End()
	c.tel.Counter("deploy.rollbacks").Inc()
	var flipped []string
	for i := range plan {
		if plan[i].flipped {
			flipped = append(flipped, plan[i].sw)
			c.tel.Counter("deploy_rollbacks_total", "switch", plan[i].sw).Inc()
		}
	}
	prev := c.bundle
	if prev == nil {
		prev = &deploy.Bundle{}
	}
	undo := c.plan(flipped, prev, false)
	_ = c.push(nil, undo, false, OpRollback) // every step's error is read below
	for i := range undo {
		if undo[i].err != nil {
			c.tel.Counter("deploy.rollback.stuck").Inc()
		}
	}
	return fmt.Errorf("controller: rolled back to previous bundle: %w", err)
}

// pushBundle deploys newBundle wholesale, two-phase, to every switch
// whose table differs from the deployed one — expansion stays
// incremental — or to every switch on the first push. Called with c.mu
// held.
func (c *Controller) pushBundle(newBundle *deploy.Bundle) error {
	span := c.tel.StartSpan("deploy/push")
	defer span.End()
	c.tel.Counter("deploy.pushes").Inc()
	var names []string
	if c.bundle == nil {
		names = keys(newBundle.Switches)
	} else {
		names = keys(deploy.Diff(c.bundle, newBundle))
	}
	return c.push(span, c.plan(names, newBundle, false), true, OpActivate)
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// stage puts s.want into the switch's STAGED slot and confirms it by
// readback. A delta step first reads the ACTIVE table and stages only the
// difference; when there is none the live state already matches intent
// (e.g. a reconcile got here first) and nothing is staged or flipped.
func (s *step) stage() {
	op, write := OpInstall, func() error { return s.c.agent.Install(s.sw, s.want) }
	if s.delta {
		var active deploy.SwitchBundle
		if s.err = s.attempt(OpFetchActive, func(int) (string, error) {
			var err error
			active, err = s.c.agent.FetchActive(s.sw)
			return OpFetchActive, err
		}); s.err != nil {
			return
		}
		delta := deploy.DeltaFor(active, s.want)
		s.diff = &delta
		if delta.Empty() {
			return
		}
		// Patch recomputes staged from the switch's active table, so each
		// retry is a clean re-application — a partial write never compounds.
		op, write = OpPatch, func() error { return s.c.agent.Patch(s.sw, delta) }
	}
	s.err = s.stageVerify(op, write)
	s.staged = s.err == nil
}

// flip promotes the staged table to active, audited as op (OpActivate, or
// OpRollback when re-activating the previous verified table).
func (s *step) flip(op string) {
	s.err = s.attempt(op, func(int) (string, error) { return op, s.c.agent.Activate(s.sw) })
	s.flipped = s.err == nil
}

// stageVerify writes the staged slot and confirms the readback matches
// s.want. Each attempt is one write+verify round; any failure — a lost
// RPC, a partial write caught by the readback mismatch — triggers an
// idempotent re-write of the whole table after backoff.
func (s *step) stageVerify(op string, write func() error) error {
	return s.attempt(op, func(try int) (string, error) {
		if err := write(); err != nil {
			return op, err
		}
		s.auditRecord(op, try, nil, 0)
		got, err := s.c.agent.Fetch(s.sw)
		if err == nil && !sameRules(got.Rules, s.want.Rules) {
			err = fmt.Errorf("staged bundle mismatch: %d/%d rules landed", len(got.Rules), len(s.want.Rules))
			s.c.tel.Counter("deploy.partial_detected").Inc()
		}
		return OpVerify, err
	})
}

// attempt is the one retry loop: it runs fn up to MaxAttempts times with
// backoff between failures. fn returns the op its outcome is audited
// under (a compound round names the RPC that failed, or its last one).
// Gauges, the give-up error and the backoff jitter are keyed by op, the
// name of the round. It returns the last error when every try failed.
func (s *step) attempt(op string, fn func(try int) (string, error)) error {
	cfg, tel := &s.c.deployCfg, s.c.tel
	tries := max(cfg.MaxAttempts, 1)
	var err error
	for try := 1; try <= tries; try++ {
		var rpc string
		if rpc, err = fn(try); err == nil {
			s.auditRecord(rpc, try, nil, 0)
			tel.Gauge("deploy_last_attempts", "switch", s.sw, "op", op).Set(float64(try))
			if try > 1 {
				tel.Counter("deploy_retries_total", "switch", s.sw).Add(int64(try - 1))
			}
			return nil
		}
		var backoff time.Duration
		if try < tries {
			backoff = backoffFor(cfg, s.sw, op, try)
			tel.Counter("deploy.backoff_ns").Add(int64(backoff))
			if cfg.Sleep != nil {
				cfg.Sleep(backoff)
			}
		}
		s.auditRecord(rpc, try, err, backoff)
	}
	tel.Counter("deploy.gave_up").Inc()
	tel.Gauge("deploy_last_attempts", "switch", s.sw, "op", op).Set(float64(tries))
	tel.Counter("deploy_retries_total", "switch", s.sw).Add(int64(tries - 1))
	return fmt.Errorf("controller: %s on %s failed after %d attempts: %w", op, s.sw, tries, err)
}

// auditRecord buffers one entry and bumps the matching counters.
func (s *step) auditRecord(op string, attempt int, err error, backoff time.Duration) {
	e := AuditEntry{Switch: s.sw, Op: op, Attempt: attempt, Backoff: backoff}
	if err != nil {
		e.Err = err.Error()
		s.c.tel.Counter("deploy." + op + ".fail").Inc()
	} else {
		s.c.tel.Counter("deploy." + op + ".ok").Inc()
	}
	s.log = append(s.log, e)
}

// absorb appends a step's buffered audit entries to the controller log,
// assigning global sequence numbers.
func (c *Controller) absorb(s *step) {
	for _, e := range s.log {
		e.Seq = c.auditSeq
		c.auditSeq++
		c.auditLog = append(c.auditLog, e)
	}
	s.log = s.log[:0]
}

// backoffFor returns the capped exponential delay before retrying after
// the attempt-th failure (attempt >= 1) of op on sw, with +/-25% jitter.
// The jitter is a pure function of (JitterSeed, switch, op, attempt): no
// stream is shared between steps, so a switch's retry timeline does not
// depend on what ran before it or beside it.
func backoffFor(cfg *DeployConfig, sw, op string, attempt int) time.Duration {
	d := cfg.BaseBackoff
	if d <= 0 {
		d = time.Millisecond
	}
	for i := 1; i < attempt; i++ {
		d *= 2
		if cfg.MaxBackoff > 0 && d >= cfg.MaxBackoff {
			break
		}
	}
	if cfg.MaxBackoff > 0 && d > cfg.MaxBackoff {
		d = cfg.MaxBackoff
	}
	// FNV-1a over the inputs, then a splitmix64 finalizer so the short,
	// similar keys spread over all 53 mantissa bits.
	const prime = 1099511628211
	h := uint64(14695981039346656037) ^ uint64(cfg.JitterSeed)
	for _, key := range [2]string{sw, op} {
		for i := 0; i < len(key); i++ {
			h = (h ^ uint64(key[i])) * prime
		}
		h = (h ^ 0xff) * prime
	}
	h = (h ^ uint64(attempt)) * prime
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	h ^= h >> 31
	// Jitter in [0.75, 1.25).
	return time.Duration(float64(d) * (0.75 + 0.5*float64(h>>11)/(1<<53)))
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
