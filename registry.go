package tagger

import (
	"errors"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// An Experiment is one reproducible artifact of the evaluation as a
// value. The ordered table below is the only list of experiments:
// `taggersim -exp`, its help text, the goldens under
// cmd/taggersim/testdata and the drift test over Makefile and
// EXPERIMENTS.md all iterate it.
type Experiment struct {
	Name string
	// Paper names the figure, table or section the experiment reproduces
	// or extends.
	Paper string
	// Accepts lists the taggersim flags whose RunOptions field Run reads;
	// the CLI rejects any other experiment's flag instead of dropping it.
	Accepts []string
	// Run executes the experiment. The Report is what the run has to
	// show — on failure, up to where it stopped — and every broken
	// invariant (non-convergence, a deadlock under Tagger rules, a lossy
	// capture) is an error, never an exit.
	Run func(RunOptions) (Report, error)
}

// RunOptions is the one options value behind every experiment and every
// options-taking driver (FigureWith, ChaosSoakWith, ChaosSweep, ChurnSoak,
// DetectRun, DetectMatrix, Table5CaseWith). Each field is what one
// taggersim flag carries (ECMP excepted: no flag, Table 5 only); the
// zero value is a plain, uncaptured, telemetry-free run.
type RunOptions struct {
	// Seeds is how many seeded runs a sweep performs (seeds 1..n, from
	// -runs or -seeds); 0 selects the experiment's default.
	Seeds int
	// Par is the worker count for sweeps and for Table 5's fan-out
	// stages (-par; 0 = GOMAXPROCS). Results never depend on it.
	Par int
	// Days and PerDay size the Table 1 campaign (-days, -per-day).
	Days   int
	PerDay int64
	// ECMP makes a Table 5 case enumerate all equal-cost shortest paths
	// per pair (capped at 8) instead of one.
	ECMP bool
	// Trace, when non-empty, captures the packet simulation's event
	// stream as a TGL1 binary trace (-trace): the capture file of a
	// figure run, the stem of a soak's per-seed files. OpenTrace creates
	// each file (nil = os.Create) so the caller can own their lifetime; it
	// must be safe for concurrent use when Par != 1.
	Trace     string
	OpenTrace func(path string) (io.WriteCloser, error)
	// FlightRec, when non-nil, arms the flight recorder with this
	// configuration (-flightrec arms the zero FlightRecConfig).
	FlightRec *FlightRecConfig
	// Ops, when non-nil, receives the run's operational telemetry (-ops).
	Ops *telemetry.Registry
}

// seeds resolves the sweep's seed list, def runs when none were asked for.
func (o RunOptions) seeds(def int) []int64 {
	if o.Seeds != 0 {
		def = o.Seeds
	}
	return sweep.Seeds(1, def)
}

// capture wires o's capture paths onto n ahead of its run: a binary
// tracer writing to file (none when empty), then the flight recorder,
// which chains it. The returned finish, called once after the run,
// flushes and closes the trace and reports what both paths produced and
// shed. A write or sink failure is an error — the only way a capture
// loses events, and it would otherwise read back as a complete one.
func (o RunOptions) capture(n *sim.Network, file string) (finish func() (CaptureStats, error), err error) {
	flush := func() (CaptureStats, error) { return CaptureStats{}, nil }
	if file != "" {
		open := o.OpenTrace
		if open == nil {
			open = func(path string) (io.WriteCloser, error) { return os.Create(path) }
		}
		w, err := open(file)
		if err != nil {
			return nil, err
		}
		bt, err := sim.NewBinaryTracer(w, trace.Config{})
		if err != nil {
			w.Close()
			return nil, err
		}
		n.SetTracer(bt)
		flush = func() (CaptureStats, error) {
			err := bt.Close()
			if cerr := w.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				err = fmt.Errorf("tagger: trace write %s: %w (%d events dropped)", file, err, bt.Dropped())
			}
			return CaptureStats{File: file}, err
		}
	}
	if o.FlightRec == nil {
		return flush, nil
	}
	fr := n.EnableFlightRecorder(*o.FlightRec)
	return func() (CaptureStats, error) {
		st, err := flush()
		st.Incidents, st.DroppedTriggers, st.Overwrites = fr.Incidents(), fr.DroppedTriggers(), fr.Overwrites()
		if serr := fr.SinkErr(); err == nil && serr != nil {
			err = fmt.Errorf("tagger: flight-recorder sink: %w", serr)
		}
		return st, err
	}, nil
}

// Report is the text an experiment run has to show, accumulated as the
// run goes and printed by the caller.
type Report struct{ text []byte }

func (r *Report) printf(format string, a ...any) { r.text = fmt.Appendf(r.text, format, a...) }

// String returns the report text.
func (r Report) String() string { return string(r.text) }

// Experiments returns the experiment table in menu order.
func Experiments() []Experiment { return slices.Clone(experiments) }

var (
	figureFlags = []string{"trace", "flightrec"}
	experiments = []Experiment{
		{"fig10", "Figure 10: deadlock due to 1-bounce paths", figureFlags, figureExperiment("fig10")},
		{"fig11", "Figure 11: deadlock due to a routing loop", figureFlags, figureExperiment("fig11")},
		{"fig12", "Figure 12: PAUSE propagation", figureFlags, figureExperiment("fig12")},
		{"table1", "Table 1: reroute probability", []string{"days", "per-day"}, runTable1},
		{"overhead", "§8: performance penalty", nil, runOverhead},
		{"multiclass", "§6: multiple application classes", nil, runMultiClass},
		{"recovery", "§1: detect-and-break recovery vs prevention", nil, runRecovery},
		{"dcqcn", "§6: interaction with DCQCN", nil, runDCQCN},
		{"budget", "§3.3: lossless queue budget", nil, runBudget},
		{"compression", "§7 / Figure 9: rule compression", nil, runCompression},
		{"isolation", "§6: shared-tag isolation trade-off", nil, runIsolation},
		{"reconverge", "§3: organic failures and reconvergence", nil, runReconverge},
		{"chaos", "§7 extension: deployment through faulty agents under chaos",
			[]string{"seeds", "runs", "par", "trace"}, runChaos},
		{"churn", "§6 extension: topology churn as incremental deltas",
			[]string{"seeds", "runs", "trace"}, runChurn},
		{"detect", "§1 extension: detect-vs-prevent matrix (DCFIT, PAPERS.md)",
			[]string{"seeds", "runs", "par", "flightrec"}, runDetect},
	}
)

// String renders the run the way the figure experiments print it: the
// verdict (with the pause-wait cycle), drop counters, and one delivered-
// rate sparkline per flow.
func (res ExperimentResult) String() string {
	var rep Report
	if res.Deadlocked {
		rep.printf("DEADLOCK detected; pause-wait cycle:\n")
		for _, e := range res.Cycle {
			rep.printf("  %s\n", e)
		}
	} else {
		rep.printf("no deadlock\n")
	}
	rep.printf("drops: %+v\n", res.Drops)
	rep.printf("per-flow delivered rate over time (each char = 1 ms, full block = 40 Gbps):\n")
	for _, f := range res.Flows {
		vals := make([]float64, len(f.Points))
		for i, p := range f.Points {
			vals[i] = p.Gbps
		}
		rep.printf("  %-8s %s  late: %5.1f Gbps\n", f.Name, telemetry.Sparkline(vals, 40), f.LateGbps)
	}
	return rep.String()
}

// writeIncidents dumps each captured incident under incidents/ as
// <stem>.<seq>.tgl and returns the paths.
func writeIncidents(stem string, incs []Incident) ([]string, error) {
	if len(incs) == 0 {
		return nil, nil
	}
	if err := os.MkdirAll("incidents", 0o755); err != nil {
		return nil, err
	}
	names := make([]string, len(incs))
	for i, inc := range incs {
		names[i] = fmt.Sprintf("incidents/%s.%d.tgl", stem, inc.Seq)
		if err := os.WriteFile(names[i], inc.Data, 0o644); err != nil {
			return nil, err
		}
	}
	return names, nil
}

// figureExperiment runs Figure 10, 11 or 12 the way the paper plots it:
// without and with Tagger. -trace captures the without-Tagger half into
// one file and stops there; -flightrec arms the recorder on both halves
// and dumps what it caught under incidents/.
func figureExperiment(name string) func(RunOptions) (Report, error) {
	return func(o RunOptions) (rep Report, err error) {
		without, with := "", " (k=1)"
		switch {
		case o.Trace != "" && o.FlightRec != nil:
			return rep, errors.New("-flightrec and -trace are mutually exclusive for figures (the recorder is the capture)")
		case o.Trace != "":
			without = fmt.Sprintf(" (traced to %s)", o.Trace)
		case o.FlightRec != nil:
			without, with = " (flight recorder armed)", " (k=1, flight recorder armed)"
		}
		half := func(withTagger bool, label string) error {
			res, err := FigureWith(name, withTagger, o)
			if err != nil {
				return err
			}
			rep.printf("%s", res)
			c := res.Capture
			if o.FlightRec == nil {
				return nil
			}
			names, err := writeIncidents(name+"."+label, c.Incidents)
			if err != nil {
				return err
			}
			for i, inc := range c.Incidents {
				rep.printf("flight recorder: incident %d (%s at %s, t=%v) -> %s\n",
					inc.Seq, inc.Trigger, inc.Node, inc.At, names[i])
			}
			rep.printf("flight recorder: %d incidents captured, %d triggers dropped, %d ring overwrites\n",
				len(c.Incidents), c.DroppedTriggers, c.Overwrites)
			return nil
		}
		rep.printf("=== %s WITHOUT Tagger%s ===\n", name, without)
		if err := half(false, "without"); err != nil || o.Trace != "" {
			return rep, err
		}
		rep.printf("\n=== %s WITH Tagger%s ===\n", name, with)
		return rep, half(true, "with")
	}
}

func runTable1(o RunOptions) (rep Report, err error) {
	res := Table1(o.Days, o.PerDay)
	rep.printf("%soverall reroute probability: %.2e (paper: ~3e-5)\n", res, res.OverallProbability())
	return rep, nil
}

func runOverhead(RunOptions) (rep Report, err error) {
	res := Overhead()
	rep.printf("baseline aggregate goodput: %.1f Gbps (worst-flow P99 latency %v)\n", res.BaselineGbps, res.BaselineP99)
	rep.printf("with Tagger rules:          %.1f Gbps (worst-flow P99 latency %v)\n", res.TaggerGbps, res.TaggerP99)
	rep.printf("penalty:                    %.2f%% (paper: negligible)\n", res.PenaltyPercent())
	return rep, nil
}

func runMultiClass(RunOptions) (rep Report, err error) {
	res, err := MultiClass(2, 1)
	if err != nil {
		return rep, err
	}
	rep.printf("%d classes, %d bounces: shared tags need %d queues, naive composition %d\n",
		res.Classes, res.Bounces, res.SharedQueues, res.NaiveQueues)
	return rep, nil
}

func runRecovery(RunOptions) (rep Report, err error) {
	res := CompareRecovery()
	rep.printf("detect-and-break recovery on the Figure 10 scenario:\n")
	rep.printf("  deadlock reformed %d times; %d lossless packets sacrificed\n",
		res.RecoveryDetections, res.RecoveryPacketsDropped)
	rep.printf("  goodput: recovery %.1f Gbps vs Tagger %.1f Gbps\n", res.RecoveryGoodputGbps, res.TaggerGoodputGbps)
	rep.printf("paper §1: recovery \"cannot guarantee that the deadlock would not immediately reappear\"\n")
	return rep, nil
}

func runDCQCN(RunOptions) (rep Report, err error) {
	res := DCQCNExperiment()
	rep.printf("incast PAUSE frames: %d without congestion control, %d with DCQCN\n", res.PausesWithoutCC, res.PausesWithCC)
	rep.printf("incast goodput with DCQCN: %.1f Gbps\n", res.GoodputGbps)
	rep.printf("Tagger + DCQCN on the Fig 10 scenario clean: %v\n", res.TaggerCleanWith)
	return rep, nil
}

func runBudget(RunOptions) (rep Report, err error) {
	rep.printf("lossless queue budget per ASIC generation (§3.3):\n")
	for _, r := range QueueBudget() {
		rep.printf("  %-14s %4.0f MB buffer, %d x %dG: %d lossless queues (%d KB/queue/port)\n",
			r.Name, r.BufferMB, r.Ports, r.GbpsPerPort, r.MaxLossless, r.PerQueueBytes>>10)
	}
	rep.printf("paper: \"even newest switching ASICs are not expected to support more than four\"\n")
	return rep, nil
}

func runCompression(RunOptions) (rep Report, err error) {
	lv := CompressionAblation()
	rep.printf("testbed rule set compression (§7/Figure 9):\n")
	rep.printf("  exact rules:          %d\n  InPort bitmaps only:  %d\n  joint aggregation:    %d\n",
		lv.Exact, lv.InPortOnly, lv.Joint)
	return rep, nil
}

func runIsolation(RunOptions) (rep Report, err error) {
	res := IsolationCost()
	rep.printf("§6 shared-tag isolation trade-off:\n")
	rep.printf("  class-2 victim with class-1 on healthy route: %.1f Gbps\n", res.VictimCleanGbps)
	rep.printf("  class-2 victim with class-1 bounced into its priority: %.1f Gbps\n", res.VictimMixedGbps)
	rep.printf("  cost: %.0f%% while the bounce persists (paper: acceptable, bounces are rare)\n", res.CostPercent())
	return rep, nil
}

func runReconverge(RunOptions) (rep Report, err error) {
	rep.printf(`organic failure handling (no pinned paths): fail L1-T1 and L3-T4 at 5ms,
local fast-reroute detours + stale upstream routes, global convergence at 15ms

=== WITHOUT Tagger ===
%s
=== WITH Tagger (k=1) ===
%s`, Reconvergence(false, 8), Reconvergence(true, 8))
	return rep, nil
}

// traceLine names the capture file of one traced soak.
func (r *Report) traceLine(c CaptureStats) {
	r.printf("trace capture %s\n", c.File)
}

// runChaos soaks every seed's fault schedule with and without Tagger,
// each arm fanned over -par workers; -trace captures every soak.
func runChaos(o RunOptions) (rep Report, err error) {
	sd := o.seeds(3)
	rep.printf(`chaos soak: %d seeded fault schedules over the testbed (link flaps,
switch reboots, faulty switch agents); a 500us watchdog samples for
pause-wait cycles; Tagger rules deploy through the unreliable agents

`, len(sd))
	if o.Trace != "" {
		rep.printf("(tracing each soak to %s.seed<N>.<with|without>)\n\n", o.Trace)
	}
	with, err := ChaosSweep(sd, true, o)
	if err != nil {
		return rep, err
	}
	without, err := ChaosSweep(sd, false, o)
	if err != nil {
		return rep, err
	}
	for i := 0; o.Trace != "" && i < len(sd); i++ {
		rep.traceLine(with[i].Capture)
		rep.traceLine(without[i].Capture)
	}
	for i, seed := range sd {
		w, wo := with[i], without[i]
		rep.printf("seed %-3d %2d faults | with Tagger: clean=%v (bring-up attempts=%d, install failures=%d, partial installs caught=%d) | without: deadlocked=%v (%d/%d samples)\n",
			seed, w.Faults, w.Clean(), w.DeployAttempts,
			w.DeployCounters["deploy.install.fail"], w.DeployCounters["deploy.partial_detected"],
			wo.Deadlocked, wo.Watchdog.DeadlockSamples, wo.Watchdog.Samples)
		if wo.FirstDeadlock != nil {
			rep.printf("         first cycle at %v: %s\n", wo.Watchdog.FirstDeadlockAt, DeadlockString(wo.FirstDeadlock))
		}
	}
	return rep, nil
}

// runChurn drives every seed's churn sequence and requires the fabric to
// end converged; -trace appends a packet-level validation run of the
// converged fabric per seed, which must not deadlock.
func runChurn(o RunOptions) (rep Report, err error) {
	sd := o.seeds(3)
	rep.printf(`churn soak: %d seeded churn sequences over the testbed (link flaps,
drains, a pod expansion); link flaps push nothing, drains and the
expansion re-synthesize incrementally and push per-switch rule deltas
two-phase; midway a spine reboots and the reconciliation sweep
re-drives it to intent

`, len(sd))
	if o.Trace != "" {
		rep.printf("(tracing a post-churn validation run per seed to %s.seed<N>)\n", o.Trace)
	}
	for _, seed := range sd {
		res, err := ChurnSoak(seed, 24, o)
		if err != nil {
			return rep, err
		}
		if o.Trace != "" {
			rep.traceLine(res.Capture)
		}
		added, removed, modified := res.RulesMoved()
		rep.printf("seed %-3d %2d events (+%d pod), %2d pushes | rules +%d -%d ~%d | %s rebooted, reconcile fixed %d | converged=%v (%d rules live)\n",
			res.Seed, len(res.Events), res.PodsAdded, res.Pushes(), added, removed, modified,
			res.Rebooted, res.ReconcileFixed, res.Converged, res.FinalRules)
		if !res.Converged {
			return rep, fmt.Errorf("seed %d: fabric did not converge to intent", res.Seed)
		}
		if res.ValidationDeadlocked {
			return rep, fmt.Errorf("seed %d: post-churn validation run deadlocked", res.Seed)
		}
	}
	return rep, nil
}

// runDetect runs the four-arm matrix (100 seeds by default: the
// head-to-head needs a population, not a demo) and returns
// CheckDetectMatrix's verdict on it.
func runDetect(o RunOptions) (rep Report, err error) {
	sd := o.seeds(100)
	rep.printf(`detect-vs-prevent matrix: %d seeds x 4 arms over the Figure 3 CBD
scenario (jittered starts, background cross traffic, off-path T2
reboots). Arms: tagger (prevention; detector rides along as a
false-positive oracle), detect (in-switch tag detector + targeted
drop), scan (500us global-view detect-and-break), none (control)

`, len(sd))
	matrix, err := DetectMatrix(sd, o)
	if err != nil {
		return rep, err
	}
	sums := SummarizeDetectMatrix(matrix)
	rep.printf("%s\n", DetectMatrixTable(sums))
	if o.FlightRec != nil {
		var first string
		for _, arm := range DetectArms() {
			var captured int
			var dropped, overwrites int64
			for _, r := range matrix[arm] {
				c := r.Capture
				names, err := writeIncidents(fmt.Sprintf("detect.seed%d.%s", r.Seed, arm), c.Incidents)
				if err != nil {
					return rep, err
				}
				if first == "" && len(names) > 0 {
					first = names[0]
				}
				captured += len(c.Incidents)
				dropped += c.DroppedTriggers
				overwrites = max(overwrites, c.Overwrites)
			}
			rep.printf("flight recorder: %-6s arm: %d incidents captured, %d triggers dropped, max ring overwrites %d\n",
				arm, captured, dropped, overwrites)
		}
		if first != "" {
			rep.printf("forensics: taggertrace postmortem %s\n", first)
		}
		rep.printf("\n")
	}
	if err := CheckDetectMatrix(sums); err != nil {
		return rep, err
	}
	rep.printf(`invariants held: tagger arm deadlock- and detection-free; detect arm
cleared every seed's deadlocks within bounded time-to-recover (the
cycle re-forms under persistent CBD traffic — §1's case against
detect-and-react); the unprotected control deadlocked on every seed
`)
	return rep, nil
}
