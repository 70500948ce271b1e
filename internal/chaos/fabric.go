package chaos

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/deploy"
)

// Fabric is an in-memory fleet of unreliable switch rule agents. It
// implements the controller's SwitchAgent interface (Install, Fetch,
// Activate, FetchActive, Patch) and misbehaves according to per-switch
// fault queues loaded from a Schedule or injected directly.
//
// Each switch holds two bundle slots, STAGED and ACTIVE, mirroring the
// two-phase deployment protocol. Faults are consumed one per RPC in
// queue order, so a run against a fixed schedule and a fixed RPC
// sequence is fully deterministic.
type Fabric struct {
	mu sync.Mutex
	sw map[string]*swState

	// RPCTimeout is the deadline the control channel enforces; a delayed
	// reply beyond it surfaces as a timeout error even though the op was
	// applied (the caller must re-push idempotently). Default 50ms.
	RPCTimeout time.Duration

	calls int64
}

type swState struct {
	staged    deploy.SwitchBundle
	active    deploy.SwitchBundle
	hasStaged bool
	reboots   int
	queue     []Fault
}

// NewFabric builds a fabric with an agent per named switch and no
// faults queued.
func NewFabric(switches []string) *Fabric {
	f := &Fabric{sw: make(map[string]*swState), RPCTimeout: 50 * time.Millisecond}
	for _, name := range switches {
		f.sw[name] = &swState{}
	}
	return f
}

// Add registers agents for newly racked switches (e.g. after a pod
// expansion). Existing switches keep their state.
func (f *Fabric) Add(switches ...string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, name := range switches {
		if _, ok := f.sw[name]; !ok {
			f.sw[name] = &swState{}
		}
	}
}

// Load queues every agent-visible fault of the schedule onto its target
// switch, in time order. Link faults are not agent faults; the caller
// feeds those to the simulator.
func (f *Fabric) Load(s Schedule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, fault := range s.AgentFaults() {
		if st, ok := f.sw[fault.Switch]; ok {
			st.queue = append(st.queue, fault)
		}
	}
}

// Inject appends faults to one switch's queue — the scripted hook for
// tests and examples.
func (f *Fabric) Inject(sw string, faults ...Fault) {
	f.mu.Lock()
	defer f.mu.Unlock()
	st, ok := f.sw[sw]
	if !ok {
		panic(fmt.Sprintf("chaos: unknown switch %q", sw))
	}
	st.queue = append(st.queue, faults...)
}

// state looks up a switch or errors like a dead control channel would.
func (f *Fabric) state(sw string) (*swState, error) {
	st, ok := f.sw[sw]
	if !ok {
		return nil, fmt.Errorf("chaos: no agent for switch %q", sw)
	}
	return st, nil
}

// roll consumes the head fault of sw's queue for the given op. It
// returns (applyTimes, partialFrac, err): applyTimes is how many times
// the op should be applied (0 = request lost, 2 = duplicated, -1 = apply
// a partial install keeping partialFrac of the rules), err is the error
// the caller sees (the op may still have been applied — that is the
// point).
func (f *Fabric) roll(st *swState, install bool) (int, float64, error) {
	if len(st.queue) == 0 {
		return 1, 0, nil
	}
	head := &st.queue[0]
	pop := func() { st.queue = st.queue[1:] }
	switch head.Kind {
	case FaultInstallPartial:
		if !install {
			return 1, 0, nil // partial faults wait for the next install RPC
		}
		frac := head.Frac
		pop()
		return -1, frac, nil
	case FaultInstallTransient, FaultInstallPersistent:
		kind := head.Kind
		head.Count--
		if head.Count <= 0 {
			pop()
		}
		return 0, 0, fmt.Errorf("agent busy (%s)", kind)
	case FaultRPCDrop:
		pop()
		return 0, 0, fmt.Errorf("rpc timeout: request lost")
	case FaultRPCDelay:
		d := head.Delay
		pop()
		if d > f.RPCTimeout {
			return 1, 0, fmt.Errorf("rpc timeout after %v (op applied)", f.RPCTimeout)
		}
		return 1, 0, nil
	case FaultRPCDuplicate:
		pop()
		return 2, 0, nil
	case FaultSwitchReboot:
		pop()
		st.staged, st.active = deploy.SwitchBundle{}, deploy.SwitchBundle{}
		st.hasStaged = false
		st.reboots++
		return 0, 0, fmt.Errorf("connection reset: switch rebooting")
	default:
		pop()
		return 1, 0, nil
	}
}

// Install implements SwitchAgent: stage b on sw, subject to faults.
func (f *Fabric) Install(sw string, b deploy.SwitchBundle) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	st, err := f.state(sw)
	if err != nil {
		return err
	}
	times, frac, ferr := f.roll(st, true)
	if times == -1 {
		// Partial install: only a prefix of the bundle lands, and the
		// agent reports success — silent corruption for readback to catch.
		keep := int(float64(len(b.Rules)) * frac)
		if keep >= len(b.Rules) && len(b.Rules) > 0 {
			keep = len(b.Rules) - 1
		}
		st.staged = deploy.SwitchBundle{Rules: append([]deploy.RuleJSON(nil), b.Rules[:keep]...)}
		st.hasStaged = true
		return nil
	}
	for i := 0; i < times; i++ {
		st.staged = deploy.SwitchBundle{Rules: append([]deploy.RuleJSON(nil), b.Rules...)}
		st.hasStaged = true
	}
	return ferr
}

// Fetch implements SwitchAgent: read back the staged bundle.
func (f *Fabric) Fetch(sw string) (deploy.SwitchBundle, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	st, err := f.state(sw)
	if err != nil {
		return deploy.SwitchBundle{}, err
	}
	times, _, ferr := f.roll(st, false)
	if times == 0 && ferr != nil {
		return deploy.SwitchBundle{}, ferr
	}
	out := deploy.SwitchBundle{Rules: append([]deploy.RuleJSON(nil), st.staged.Rules...)}
	return out, ferr
}

// Activate implements SwitchAgent: promote staged to active atomically.
// Activating with nothing staged (a rebooted switch) is an error, never
// a silent wipe of the live rules.
func (f *Fabric) Activate(sw string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	st, err := f.state(sw)
	if err != nil {
		return err
	}
	times, _, ferr := f.roll(st, false)
	for i := 0; i < times; i++ {
		if !st.hasStaged {
			return fmt.Errorf("nothing staged on %s", sw)
		}
		st.active = deploy.SwitchBundle{Rules: append([]deploy.RuleJSON(nil), st.staged.Rules...)}
	}
	return ferr
}

// FetchActive implements SwitchAgent's delta read side: the
// currently ACTIVE bundle, subject to the same control-channel faults as
// Fetch.
func (f *Fabric) FetchActive(sw string) (deploy.SwitchBundle, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	st, err := f.state(sw)
	if err != nil {
		return deploy.SwitchBundle{}, err
	}
	times, _, ferr := f.roll(st, false)
	if times == 0 && ferr != nil {
		return deploy.SwitchBundle{}, ferr
	}
	return deploy.SwitchBundle{Rules: append([]deploy.RuleJSON(nil), st.active.Rules...)}, ferr
}

// Patch implements SwitchAgent's delta write side: stage the
// result of applying d to the ACTIVE bundle. Like Install it is subject
// to install-class faults — a partial patch silently stages only a prefix
// of the patched table, which readback verification must catch.
func (f *Fabric) Patch(sw string, d deploy.SwitchDiff) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	st, err := f.state(sw)
	if err != nil {
		return err
	}
	times, frac, ferr := f.roll(st, true)
	if times == -1 {
		full := deploy.ApplyDelta(st.active, d)
		keep := int(float64(len(full.Rules)) * frac)
		if keep >= len(full.Rules) && len(full.Rules) > 0 {
			keep = len(full.Rules) - 1
		}
		st.staged = deploy.SwitchBundle{Rules: full.Rules[:keep]}
		st.hasStaged = true
		return nil
	}
	for i := 0; i < times; i++ {
		st.staged = deploy.ApplyDelta(st.active, d)
		st.hasStaged = true
	}
	return ferr
}

// Reboot wipes a switch's staged and active rule state immediately — the
// agent-level effect of a power cycle, for scenarios that couple fabric
// reboots to simulator reboots.
func (f *Fabric) Reboot(sw string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if st, ok := f.sw[sw]; ok {
		st.staged, st.active = deploy.SwitchBundle{}, deploy.SwitchBundle{}
		st.hasStaged = false
		st.reboots++
	}
}

// ActiveBundle assembles the fabric-wide live deployment: what the
// switches are actually running, as opposed to what the controller
// believes it pushed. Switches with no active rules are omitted.
func (f *Fabric) ActiveBundle(maxTag int) *deploy.Bundle {
	f.mu.Lock()
	defer f.mu.Unlock()
	b := &deploy.Bundle{MaxTag: maxTag, Switches: make(map[string]deploy.SwitchBundle)}
	for name, st := range f.sw {
		if len(st.active.Rules) == 0 {
			continue
		}
		b.Switches[name] = deploy.SwitchBundle{Rules: append([]deploy.RuleJSON(nil), st.active.Rules...)}
	}
	return b
}

// Calls returns the total RPCs the fabric has served.
func (f *Fabric) Calls() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}
