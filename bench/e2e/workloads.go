package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/wire"
)

// instance is one workload set up: its inputs, built by a workloadDef from the
// seed. The harness drives it as a closed loop with one client: the next
// op starts when the previous one returns.
type instance interface {
	// gate is the untimed correctness stage, run once before the timed
	// loop. It performs the op once, checks everything that is too slow
	// to check on every op, and records the exact counts into m.
	gate(rec *recorder, m metricSet) error
	// op runs one operation and its cheap checks. An error is a failed
	// op: it is counted and contributes no latency sample.
	op(rec *recorder) error
	// minOps is how many timed ops the exact counts need: the loop keeps
	// going past its time limit until it has run that many.
	minOps() int
	// finish runs after the timed loop: end-of-run checks, and counts
	// that were accumulated over the first minOps ops.
	finish(m metricSet) error
}

// stager is implemented by workloads whose op is one opaque call into
// the program: staged performs the same work one public layer function
// at a time, so that the traced run can attribute it. It runs after each
// op of the traced run only.
type stager interface {
	staged(rec *recorder) error
}

// housekeeper is implemented by workloads that do periodic work between
// ops which is not an op: afterOp runs after every op, under a root span
// of its own, and contributes no latency sample.
type housekeeper interface {
	afterOp(rec *recorder) error
}

// workloadDef names a workload and builds it.
type workloadDef struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json
	// repeats it).
	why string
	// setup generates the inputs from the seed and brings the program
	// to the state the first op expects. Its time is part of setup_s.
	setup func(seed int64, sz sizes, rec *recorder) (instance, error)
}

// sizes are the fabric dimensions and loop constants. main always
// passes fullSizes; the tests substitute a stand-in that runs in
// seconds.
type sizes struct {
	jellyfishSwitches, jellyfishPorts int
	fatTreeK                          int
	churn                             topology.ClosConfig
	// churnPrefix is the number of churn events the exact counts cover;
	// reconcileEvery is the reboot-and-reconcile period in events.
	churnPrefix, reconcileEvery int
	// simHorizon overrides a scenario's simulated duration (0 keeps it).
	simHorizon time.Duration
	// forensicsSeeds is how many DetectMatrix seeds an op cycles over.
	forensicsSeeds int
	// captureEvents is the size of the synthetic trace-capture probe.
	captureEvents int
	// frameSamples is how many ELP frames the gate pushes through the
	// byte-level dataplane.
	frameSamples int
	// setupReps is how many times set-up is performed to take setup_s as
	// a median; warmups is the number of discarded ops in each.
	setupReps, warmups int
	// checkReference enables comparisons against numbers that only hold
	// at full size (the Figure 12 goodput of record).
	checkReference bool
}

var fullSizes = sizes{
	jellyfishSwitches: 200, jellyfishPorts: 24,
	fatTreeK:       8,
	churn:          topology.ClosConfig{Pods: 4, ToRsPerPod: 2, LeafsPerPod: 2, Spines: 8, HostsPerToR: 2},
	churnPrefix:    128,
	reconcileEvery: 64,
	forensicsSeeds: 4,
	captureEvents:  1_000_000,
	frameSamples:   256,
	setupReps:      3,
	warmups:        2,
	checkReference: true,
}

// workloads lists every workload in report order. The names are cited
// by issues and by BENCHMARK.json; do not rename them.
var workloads = []workloadDef{
	{
		name:  "coldstart_jellyfish200",
		why:   "Table 5's largest row through the generic path: ELP enumeration, Algorithms 1+2, fingerprinting, TCAM image and fleet push each hold a visible share; every op misses a fresh cache",
		setup: setupJellyfish(false),
	},
	{
		name:  "warmstart_jellyfish200",
		why:   "same fabric with the synthesis cache warm: the hit path plus ELP enumeration and the push, so a hit-path gain that taxes misses (or the reverse) shows against coldstart_jellyfish200",
		setup: setupJellyfish(true),
	},
	{
		name:  "coldstart_fattree8",
		why:   "k=8 fat-tree via pod memoization: fingerprint pod quotient and synthcache stamping do nearly all the work, Algorithms 1+2 almost none, so a change to Alg 2 must not move this row",
		setup: setupFatTree,
	},
	{
		name:  "churn_clos4x8",
		why:   "the same core/elp/deploy/controller layers used incrementally (Resynth.Apply, Tracker, DeltaFor, patch/verify/activate) under link flaps and drains: the writes-beside-reads row",
		setup: setupChurn,
	},
	{
		name:  "sim_fig12_tagger",
		why:   "bare packet engine + PFC + rule classify on the Figure 12 shuffle, no tracer, watchdog, detector or recorder: the floor every instrumented simulation is compared against",
		setup: setupFig12,
	},
	{
		name:  "sim_cbd_forensics",
		why:   "the detect-and-break arm with watchdog, detector, binary tracer, flight recorder, post-mortem and trace pipeline all running: the only path where the cycle finders and capture paths execute together",
		setup: setupForensics,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloads {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// switchNames returns the names the deployment bundle and the fleet key
// switches by.
func switchNames(g *topology.Graph) []string {
	ids := g.Switches()
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = g.Node(id).Name
	}
	return out
}

// checkFrames is the byte-level part of the gate: it compiles the
// dataplane, pushes sampled ELP paths through it as encoded RoCEv2
// frames and requires the tag sequence core.Ruleset.Replay predicts,
// lossless end to end; then it requires one off-ELP frame to be demoted
// to the lossy class at the hop Replay names. It records the compile
// and per-frame costs.
func checkFrames(g *topology.Graph, rs *core.Ruleset, paths []routing.Path, seed int64, samples int, m metricSet) error {
	t0 := time.Now()
	fab := dataplane.Compile(g, rs)
	m["dataplane.compile_ms"] = float64(time.Since(t0)) / 1e6

	frame := func() []byte {
		return wire.EncodeRoCEv2(&wire.RoCEv2Packet{
			IP:  wire.IPv4{DSCP: 1, TTL: 64},
			BTH: wire.BTH{Opcode: wire.OpcodeRCWriteOnly},
		})
	}
	rng := rand.New(rand.NewSource(seed))
	if samples > len(paths) {
		samples = len(paths)
	}
	var frameNs int64
	for i := 0; i < samples; i++ {
		p := paths[rng.Intn(len(paths))]
		want := rs.Replay(p, 1)
		if !want.Lossless {
			return fmt.Errorf("ELP path %s is not lossless under the rules", p.String(g))
		}
		f := frame()
		t0 := time.Now()
		got, err := fab.ForwardFrame(f, p)
		frameNs += int64(time.Since(t0))
		if err != nil {
			return fmt.Errorf("forwarding ELP frame along %s: %w", p.String(g), err)
		}
		if !slices.Equal(got, want.Tags) {
			return fmt.Errorf("ELP frame along %s carried tags %v, rules predict %v", p.String(g), got, want.Tags)
		}
	}
	if samples > 0 {
		m["dataplane.frame_ns"] = float64(frameNs) / float64(samples)
	}

	// An off-ELP frame: extend sampled ELP paths by one more hop until
	// the rules demote one. Rules are local, so some extensions stay
	// lossless by coincidence; those are skipped, not failures.
	for try := 0; try < 64*len(paths) && len(paths) > 0; try++ {
		p := paths[rng.Intn(len(paths))]
		var nbrs []topology.NodeID
		nbrs = g.Neighbors(p.Dst(), nbrs)
		ext := append(append(routing.Path(nil), p...), nbrs[rng.Intn(len(nbrs))])
		if !ext.LoopFree() || !g.Node(ext.Dst()).Kind.IsSwitch() {
			continue
		}
		want := rs.Replay(ext, 1)
		if want.Lossless {
			continue
		}
		got, err := fab.ForwardFrame(frame(), ext)
		if err != nil {
			return fmt.Errorf("forwarding off-ELP frame along %s: %w", ext.String(g), err)
		}
		if !slices.Equal(got, want.Tags) || got[want.DropHop] != core.LossyTag {
			return fmt.Errorf("off-ELP frame along %s carried tags %v, rules predict demotion at hop %d (%v)",
				ext.String(g), got, want.DropHop, want.Tags)
		}
		return nil
	}
	return fmt.Errorf("no off-ELP path was demoted: the safeguard default was never exercised")
}
