package tagger

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/elp"
	"repro/internal/paper"
	"repro/internal/pfc"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/tcam"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/workload"
)

// This file contains one driver per table/figure of the paper's
// evaluation. Each driver returns a structured result whose fields map
// directly onto the published artifact; EXPERIMENTS.md records the
// paper-vs-measured comparison.

// --- Tables 3 and 4: the Figure 5 walk-through ------------------------------

// WalkThroughResult reproduces Figure 5 and Tables 3/4: the 6-node example
// topology, brute-force tags, merged tags, and the rewriting rules.
type WalkThroughResult struct {
	BruteForceSwitchTags int // Figure 5(b): 3
	MergedSwitchTags     int // Figure 5(c): 2
	BruteForceRules      []Rule
	MergedRules          []Rule
}

// RuleTable renders a rule list in the layout of Tables 3/4.
func RuleTable(g *Graph, rules []Rule) string {
	t := telemetry.NewTable("Switch", "Tag", "InPort", "OutPort", "NewTag")
	for _, r := range rules {
		t.AddRow(g.Node(r.Switch).Name, r.Tag, r.In, r.Out, r.NewTag)
	}
	return t.String()
}

// WalkThrough runs both algorithms on the Figure 5 fixture.
func WalkThrough() (*WalkThroughResult, *Graph, error) {
	f := paper.NewFig5()
	bf, err := core.Synthesize(f.Graph, f.ELP.Paths(), core.Options{SkipMerge: true})
	if err != nil {
		return nil, nil, err
	}
	merged, err := core.Synthesize(f.Graph, f.ELP.Paths(), core.Options{})
	if err != nil {
		return nil, nil, err
	}
	return &WalkThroughResult{
		BruteForceSwitchTags: bf.Runtime.NumSwitchTags(),
		MergedSwitchTags:     merged.Runtime.NumSwitchTags(),
		BruteForceRules:      bf.Rules.Rules(),
		MergedRules:          merged.Rules.Rules(),
	}, f.Graph, nil
}

// --- Table 5: Jellyfish scalability ------------------------------------------

// Table5Row is one row of the Jellyfish scalability table.
type Table5Row struct {
	Switches        int
	Ports           int
	LongestLossless int // hops of the longest ELP path
	ELPSize         int // number of expected lossless paths
	Priorities      int // lossless queues needed (paper: 3 everywhere)
	Rules           int // max TCAM entries on any one switch (compressed)
	ExtraRandom     int // additional random paths (last row of the table)
}

// Table5Result is the whole table.
type Table5Result struct{ Rows []Table5Row }

// String renders it like the paper.
func (r Table5Result) String() string {
	t := telemetry.NewTable("Switches", "Ports", "Longest", "ELP", "Priorities", "Rules", "+Random")
	for _, row := range r.Rows {
		t.AddRow(row.Switches, row.Ports, row.LongestLossless, row.ELPSize,
			row.Priorities, row.Rules, row.ExtraRandom)
	}
	return t.String()
}

// Table5Case computes one row: a Jellyfish of the given size with
// shortest-path ELP between all switch pairs (plus extraRandom random
// paths), synthesized with Algorithms 1+2 and compressed to TCAM entries.
func Table5Case(switches, ports int, extraRandom int, seed int64) (Table5Row, error) {
	return Table5CaseWith(switches, ports, extraRandom, seed, RunOptions{Par: 1})
}

// Table5CaseWith is Table5Case under o: o.Par is the worker count for the
// fan-out stages — ELP enumeration, Algorithm 1, rule derivation, replay
// and TCAM compression; every count computes the identical row (see
// internal/sweep) — and o.ECMP selects the denser ELP production
// fabrics run: ALL equal-cost shortest paths per pair (capped at 8), the
// multipath sets ECMP actually spreads over.
func Table5CaseWith(switches, ports, extraRandom int, seed int64, o RunOptions) (Table5Row, error) {
	j, err := topology.NewJellyfish(topology.JellyfishConfig{
		Switches: switches, Ports: ports, Seed: seed,
	})
	if err != nil {
		return Table5Row{}, err
	}
	var set *elp.Set
	if o.ECMP {
		set = elp.ShortestAllECMP(j.Graph, j.Switches, 8)
	} else {
		set = elp.ShortestAllN(j.Graph, j.Switches, o.Par)
	}
	if extraRandom > 0 {
		maxHops := 2 // random paths up to 2x the diameter-ish; keep short
		for _, p := range set.Paths() {
			maxHops = max(maxHops, p.Hops())
		}
		elp.AddRandomPaths(set, j.Graph, j.Switches, extraRandom, maxHops+2, seed^0x7ead)
	}
	sys, err := core.Synthesize(j.Graph, set.Paths(), core.Options{Workers: o.Par})
	if err != nil {
		return Table5Row{}, err
	}
	entries := tcam.CompressN(sys.Rules.Rules(), o.Par)
	return Table5Row{
		Switches:        switches,
		Ports:           ports,
		LongestLossless: set.LongestHops(),
		ELPSize:         set.Len(),
		Priorities:      sys.Runtime.NumSwitchTags(),
		Rules:           tcam.MaxPerSwitch(entries),
		ExtraRandom:     extraRandom,
	}, nil
}

// Table5 computes the default sweep. The paper scales to 2,000 switches;
// the same code handles it, the default keeps CI fast.
func Table5() (Table5Result, error) {
	cases := []struct {
		switches, ports, extra int
	}{
		{50, 12, 0},
		{100, 16, 0},
		{200, 24, 0},
		{200, 24, 10000},
	}
	var out Table5Result
	for _, cse := range cases {
		row, err := Table5Case(cse.switches, cse.ports, cse.extra, 1)
		if err != nil {
			return out, err
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// --- Figure 6: greedy vs optimal on Clos -------------------------------------

// Figure6Result compares Algorithm 2 against the Clos-specific optimum on
// the shortest + 1-bounce ELP.
type Figure6Result struct {
	GreedyQueues  int // paper: 3
	OptimalQueues int // paper: 2
}

// Figure6 runs the comparison on the testbed Clos.
func Figure6() (Figure6Result, error) {
	c := paper.Testbed()
	set := elp.KBounce(c.Graph, c.ToRs, 1, nil)
	greedy, err := core.Synthesize(c.Graph, set.Paths(), core.Options{})
	if err != nil {
		return Figure6Result{}, err
	}
	opt, err := core.ClosSynthesize(c.Graph, set.Paths(), 1)
	if err != nil {
		return Figure6Result{}, err
	}
	return Figure6Result{
		GreedyQueues:  greedy.Runtime.NumSwitchTags(),
		OptimalQueues: opt.Runtime.NumSwitchTags(),
	}, nil
}

// --- Figures 10-12: testbed experiments ---------------------------------------

// FlowSeries is one flow's delivered-rate time series.
type FlowSeries struct {
	Name   string
	Points []sim.RatePoint
	// LateGbps is the mean delivered rate over the last quarter of the
	// run — zero for deadlocked flows.
	LateGbps float64
}

// ExperimentResult holds one scenario run.
type ExperimentResult struct {
	Deadlocked bool
	Cycle      []string // the detected pause-wait cycle, if any
	Flows      []FlowSeries
	Drops      sim.DropStats
	// Engine is the event engine's own account of the run: events
	// dispatched by kind, lane vs heap scheduling, pending high-water mark.
	Engine sim.EngineStats
	// Capture is what the run's trace and flight recorder produced
	// (FigureWith only; zero otherwise).
	Capture CaptureStats
}

func runScenario(s *workload.Scenario) ExperimentResult {
	s.Run()
	res := ExperimentResult{
		Deadlocked: s.Net.Deadlocked(),
		Cycle:      s.Net.DetectDeadlock(),
		Drops:      s.Net.Drops(),
		Engine:     s.Net.EngineStats(),
	}
	lateFrom := s.Duration * 3 / 4
	for _, f := range s.Flows {
		res.Flows = append(res.Flows, FlowSeries{
			Name:     f.Name(),
			Points:   f.Series(s.Duration),
			LateGbps: f.MeanGbps(lateFrom, s.Duration),
		})
	}
	return res
}

// bounces is the workload option behind every with/without pair: Tagger
// deployed with a one-bounce budget, or nothing.
func bounces(withTagger bool) workload.Options {
	if withTagger {
		return workload.Options{Bounces: 1}
	}
	return workload.Options{}
}

// Figure10 runs the 1-bounce deadlock experiment; withTagger selects the
// (a)/(b) halves of the figure.
func Figure10(withTagger bool) ExperimentResult {
	return runScenario(workload.Figure10(bounces(withTagger)))
}

// Figure11 runs the routing-loop experiment.
func Figure11(withTagger bool) ExperimentResult {
	return runScenario(workload.Figure11(bounces(withTagger)))
}

// Figure12 runs the PAUSE-propagation shuffle experiment.
func Figure12(withTagger bool) ExperimentResult {
	return runScenario(workload.Figure12(bounces(withTagger)))
}

// Reconvergence runs the organic failure experiment: no pinned paths —
// two link failures, local fast-reroute detours (the 1-bounce paths),
// stale upstream routes with transient micro-loops, then global
// convergence at 15 ms. It is the §3 story end to end.
func Reconvergence(withTagger bool, flows int) ExperimentResult {
	return runScenario(workload.Reconvergence(bounces(withTagger), flows))
}

// CaptureStats reports what one run's optional capture paths produced
// and shed. File is the event trace written (empty when untraced); a
// lossy trace fails the run instead, its error carrying the drop count.
// Incidents are the flight recorder's captures, each a self-contained
// binary trace for `taggertrace postmortem`, deterministic per seed (and
// arm); DroppedTriggers and Overwrites are its loss counters.
type CaptureStats struct {
	File            string
	Incidents       []Incident
	DroppedTriggers int64
	Overwrites      int64
}

// FigureWith runs one half of a figure experiment ("fig10", "fig11",
// "fig12") under o: o.Trace writes the event stream (pauses, resumes,
// demotions, drops, deadlock onsets) to that file, o.FlightRec arms the
// flight recorder so deadlock onset (or an invariant violation) freezes
// the last-window ring into an incident. The result's Capture holds what
// either path produced and shed.
func FigureWith(name string, withTagger bool, o RunOptions) (ExperimentResult, error) {
	build, ok := map[string]func(workload.Options) *workload.Scenario{
		"fig10": workload.Figure10, "fig11": workload.Figure11, "fig12": workload.Figure12,
	}[name]
	if !ok {
		return ExperimentResult{}, fmt.Errorf("tagger: unknown figure %q", name)
	}
	s := build(bounces(withTagger))
	finish, err := o.capture(s.Net, o.Trace)
	if err != nil {
		return ExperimentResult{}, err
	}
	res := runScenario(s)
	res.Capture, err = finish()
	return res, err
}

// --- §8 overhead ---------------------------------------------------------------

// OverheadResult quantifies Tagger's performance penalty on a healthy
// permutation workload — throughput and delivery latency, since the
// paper claims "no discernible impact on throughput and latency".
type OverheadResult struct {
	BaselineGbps float64
	TaggerGbps   float64
	BaselineP99  time.Duration
	TaggerP99    time.Duration
}

// PenaltyPercent returns the relative goodput loss (negative = gain).
func (o OverheadResult) PenaltyPercent() float64 {
	if o.BaselineGbps == 0 {
		return 0
	}
	return (o.BaselineGbps - o.TaggerGbps) / o.BaselineGbps * 100
}

// Overhead measures aggregate goodput and worst-flow P99 latency with
// and without Tagger rules.
func Overhead() OverheadResult {
	worstP99 := func(s *workload.Scenario) time.Duration {
		var worst time.Duration
		for _, f := range s.Flows {
			worst = max(worst, f.Latency().P99)
		}
		return worst
	}
	base := workload.Permutation(workload.Options{})
	base.Run()
	tagged := workload.Permutation(workload.Options{Bounces: 1})
	tagged.Run()
	from, to := 5*time.Millisecond, 10*time.Millisecond
	return OverheadResult{
		BaselineGbps: base.AggregateGoodput(from, to),
		TaggerGbps:   tagged.AggregateGoodput(from, to),
		BaselineP99:  worstP99(base),
		TaggerP99:    worstP99(tagged),
	}
}

// --- §6 multi-class -------------------------------------------------------------

// MultiClassResult compares shared-tag queues against the naive
// composition.
type MultiClassResult struct {
	Classes      int
	Bounces      int
	SharedQueues int // M + N
	NaiveQueues  int // N * (M + 1)
}

// MultiClass evaluates the §6 composition on the testbed Clos.
func MultiClass(classes, bounces int) (MultiClassResult, error) {
	c := paper.Testbed()
	full := elp.KBounce(c.Graph, c.ToRs, bounces, nil)
	base, err := core.ClosSynthesize(c.Graph, full.Paths(), bounces)
	if err != nil {
		return MultiClassResult{}, err
	}
	sets := make([][]Path, classes)
	ud := elp.UpDownAll(c.Graph, c.ToRs)
	for i := range sets {
		if i == 0 {
			sets[i] = full.Paths()
		} else {
			sets[i] = ud.Paths() // later classes tolerate fewer bounces
		}
	}
	mc, err := core.MultiClassClos(base, sets, bounces)
	if err != nil {
		return MultiClassResult{}, err
	}
	return MultiClassResult{
		Classes:      classes,
		Bounces:      bounces,
		SharedQueues: mc.NumLosslessQueues(),
		NaiveQueues:  core.NaiveMultiClassQueues(classes, bounces),
	}, nil
}

// --- BCube / fat-tree scalability -------------------------------------------------

// BCubeTags synthesizes BCube(n,k) with its default-routing ELP and
// returns the lossless queue count (paper: the number of BCube levels).
func BCubeTags(n, k int) (int, error) {
	b, err := topology.NewBCube(n, k)
	if err != nil {
		return 0, err
	}
	set := elp.BCubeELP(b, nil)
	sys, err := core.Synthesize(b.Graph, set.Paths(), core.Options{})
	if err != nil {
		return 0, err
	}
	return sys.Runtime.NumSwitchTags(), nil
}

// --- Prevention vs detect-and-break recovery --------------------------------------

// RecoveryComparison quantifies the §1 argument against recovery-based
// schemes on the Figure 10 scenario.
type RecoveryComparison struct {
	// Recovery runs detect-and-break every 500 us.
	RecoveryDetections     int
	RecoveryPacketsDropped int64
	RecoveryGoodputGbps    float64
	// Tagger is the prevention alternative on identical traffic.
	TaggerGoodputGbps float64
}

// CompareRecovery runs the two deployments side by side.
func CompareRecovery() RecoveryComparison {
	var out RecoveryComparison

	rec := workload.Figure10(workload.Options{})
	stats := rec.Net.EnableRecovery(500 * time.Microsecond)
	rec.Run()
	out.RecoveryDetections = stats.Detections
	out.RecoveryPacketsDropped = stats.PacketsDropped
	out.RecoveryGoodputGbps = rec.AggregateGoodput(rec.Duration/2, rec.Duration)

	tag := workload.Figure10(workload.Options{Bounces: 1})
	tag.Run()
	out.TaggerGoodputGbps = tag.AggregateGoodput(tag.Duration/2, tag.Duration)
	return out
}

// --- DCQCN interaction (§6) ----------------------------------------------------------

// DCQCNResult compares PAUSE generation with and without congestion
// control on an incast, with and without Tagger.
type DCQCNResult struct {
	PausesWithoutCC int64
	PausesWithCC    int64
	GoodputGbps     float64 // with CC
	TaggerCleanWith bool    // Tagger + DCQCN coexist without drops
}

// DCQCNExperiment runs the incast comparison.
func DCQCNExperiment() DCQCNResult {
	run := func(cc bool) (*sim.Network, float64) {
		c := paper.Testbed()
		n := sim.New(c.Graph, routing.ComputeToHosts(c.Graph, routing.UpDown), sim.DefaultConfig())
		if cc {
			n.EnableDCQCN(sim.DefaultDCQCN())
		}
		g := c.Graph
		f1 := n.AddFlow(sim.FlowSpec{Name: "a", Src: g.MustLookup("H5"), Dst: g.MustLookup("H1")})
		f2 := n.AddFlow(sim.FlowSpec{Name: "b", Src: g.MustLookup("H9"), Dst: g.MustLookup("H1")})
		n.Run(15 * time.Millisecond)
		return n, f1.MeanGbps(8*time.Millisecond, 15*time.Millisecond) +
			f2.MeanGbps(8*time.Millisecond, 15*time.Millisecond)
	}
	var out DCQCNResult
	base, _ := run(false)
	out.PausesWithoutCC = base.PauseFrames
	withCC, goodput := run(true)
	out.PausesWithCC = withCC.PauseFrames
	out.GoodputGbps = goodput

	// Tagger + DCQCN on the Figure 10 scenario: clean.
	s := workload.Figure10(workload.Options{Bounces: 1})
	s.Net.EnableDCQCN(sim.DefaultDCQCN())
	s.Run()
	out.TaggerCleanWith = !s.Net.Deadlocked() && s.Net.Drops().Total() == 0
	return out
}

// --- §3.3 lossless queue budget --------------------------------------------------------

// QueueBudgetRow is one chip generation's analysis.
type QueueBudgetRow struct {
	Name          string
	BufferMB      float64
	Ports         int
	GbpsPerPort   int64
	MaxLossless   int
	PerQueueBytes int64
}

// QueueBudget reproduces the §3.3 claim that commodity ASICs support only
// a handful of lossless queues.
func QueueBudget() []QueueBudgetRow {
	specs := []struct {
		name string
		s    pfc.ChipSpec
	}{
		{"Tomahawk-40G", pfc.Tomahawk40G()},
		{"Tomahawk-100G", pfc.Tomahawk100G()},
	}
	out := make([]QueueBudgetRow, 0, len(specs))
	for _, sp := range specs {
		out = append(out, QueueBudgetRow{
			Name:          sp.name,
			BufferMB:      float64(sp.s.TotalBuffer) / (1 << 20),
			Ports:         sp.s.Ports,
			GbpsPerPort:   sp.s.LinkBitsPerSec / 1_000_000_000,
			MaxLossless:   sp.s.MaxLosslessQueues(),
			PerQueueBytes: sp.s.PerQueueReservation(),
		})
	}
	return out
}

// --- §6 isolation trade-off ------------------------------------------------------------------

// IsolationResult quantifies the reduced isolation of the shared-tag
// multi-class composition: a bounced class-1 flow lands in class 2's
// priority and takes its capacity and pauses.
type IsolationResult struct {
	VictimCleanGbps float64 // class-2 rate with the class-1 flow on a healthy route
	VictimMixedGbps float64 // class-2 rate with the class-1 flow bounced into its priority
}

// CostPercent returns the victim's relative rate loss.
func (r IsolationResult) CostPercent() float64 {
	if r.VictimCleanGbps == 0 {
		return 0
	}
	return (r.VictimCleanGbps - r.VictimMixedGbps) / r.VictimCleanGbps * 100
}

// IsolationCost runs the §6 experiment both ways.
func IsolationCost() IsolationResult {
	mixed := workload.MultiClassIsolation(true)
	mixed.Run()
	clean := workload.MultiClassIsolation(false)
	clean.Run()
	from, to := 8*time.Millisecond, 15*time.Millisecond
	return IsolationResult{
		VictimCleanGbps: clean.ByName["victim"].MeanGbps(from, to),
		VictimMixedGbps: mixed.ByName["victim"].MeanGbps(from, to),
	}
}

// --- Chaos soak: fault-tolerant deployment + continuous watchdog -------------------------

// ChaosSoakResult is one seeded soak verdict: a chaos schedule ran
// against the testbed, a continuous watchdog sampled for pause-wait
// cycles, and (with Tagger) the rules reached the fabric through an
// unreliable agent fleet consuming the same schedule's RPC faults.
type ChaosSoakResult struct {
	Seed   int64
	Faults int // schedule length
	// Deadlocked reports whether the watchdog ever observed a cycle.
	Deadlocked    bool
	FirstDeadlock []string
	Watchdog      sim.WatchdogStats
	Drops         sim.DropStats
	// Deployment outcome (withTagger only): how many controller
	// bring-up attempts the agent faults forced, the audit counters of
	// the successful one, and whether the fabric's ACTIVE rule state was
	// verified identical to the controller's bundle before the soak —
	// the "never runs a half-installed bundle" guarantee.
	DeployAttempts int
	DeployCounters map[string]int64
	FabricVerified bool
	// Capture is what the soak's event trace shed (ChaosSoakWith under
	// RunOptions.Trace; zero otherwise).
	Capture CaptureStats
}

// Clean reports the soak invariant for a Tagger deployment: no deadlock
// and no lossless drops (reboot losses excluded by construction).
func (r ChaosSoakResult) Clean() bool {
	return !r.Deadlocked && r.Watchdog.LosslessDrops == 0
}

// ChaosSoakConfig returns the default schedule shape for the testbed:
// flaps over the Figure 3 cross-pod leaf-ToR links, reboots and agent
// faults on switches outside the CBD.
func ChaosSoakConfig() chaos.Config {
	return chaos.Config{
		Duration:      40 * time.Millisecond,
		Links:         workload.ChaosLinks(),
		Switches:      workload.ChaosSwitches(),
		LinkFlaps:     3,
		Reboots:       2,
		InstallFaults: 2,
		RPCFaults:     2,
	}
}

// ChaosSoak runs one seeded chaos schedule. With Tagger, rules are
// deployed through a chaos.Fabric loaded with the schedule's agent
// faults: installs fail transiently or land partially, the controller
// retries/verifies/rolls back, and bring-up is re-attempted until the
// fabric runs a fully verified bundle — which is then what the packet
// simulation executes. Without Tagger the identical schedule runs bare,
// reproducing the deadlock the deployment exists to prevent.
func ChaosSoak(seed int64, withTagger bool) (ChaosSoakResult, error) {
	return ChaosSoakWith(seed, withTagger, RunOptions{})
}

// ChaosSoakWith is ChaosSoak under o. With o.Ops set the packet
// simulation reports its PFC pause histograms and deadlock gauges into
// it, the soak itself runs under a "soak" span, and the controller's
// deployment counters/spans are merged in after bring-up; a nil Ops keeps
// the soak telemetry-free (and bit-identical to ChaosSoak, which the
// determinism test pins). With o.Trace set the simulation's event stream
// is captured to <Trace>.seed<N>.<with|without>, one file per soak.
func ChaosSoakWith(seed int64, withTagger bool, o RunOptions) (res ChaosSoakResult, err error) {
	reg := o.Ops
	defer reg.StartSpan("soak").End()
	sched := chaos.Generate(ChaosSoakConfig(), seed)
	s := workload.Chaos(workload.Options{}, sched)
	res = ChaosSoakResult{Seed: seed, Faults: len(sched.Faults)}
	if reg != nil {
		s.Net.SetTelemetry(reg)
	}
	file, arm := "", "without"
	if withTagger {
		arm = "with"
	}
	if o.Trace != "" {
		file = fmt.Sprintf("%s.seed%d.%s", o.Trace, seed, arm)
	}
	finish, err := o.capture(s.Net, file)
	if err != nil {
		return res, err
	}
	defer func() {
		var ferr error
		if res.Capture, ferr = finish(); err == nil {
			err = ferr
		}
	}()

	if withTagger {
		g := s.Clos.Graph
		fab := chaos.NewFabric(g.SwitchNames())
		fab.Load(sched)
		// Bring-up through the faulty agents: a schedule can queue more
		// consecutive failures than one push retries through, so the
		// operator story is "re-run until verified" — each attempt drains
		// the persistent faults further.
		var ctl *controller.Controller
		for res.DeployAttempts = 1; res.DeployAttempts <= 6; res.DeployAttempts++ {
			ctl, err = controller.NewClos(s.Clos, 1, controller.WithAgent(fab))
			if err == nil {
				break
			}
		}
		if ctl != nil && reg != nil {
			reg.Merge(ctl.Telemetry().Snapshot())
		}
		if err != nil {
			return res, fmt.Errorf("tagger: chaos bring-up never converged: %w", err)
		}
		res.DeployCounters = ctl.Counters()
		// The simulation runs exactly the fabric's ACTIVE state, not the
		// controller's intent — verified identical first.
		live := fab.ActiveBundle(ctl.Bundle().MaxTag)
		res.FabricVerified = len(deploy.Diff(live, ctl.Bundle())) == 0
		if !res.FabricVerified {
			return res, fmt.Errorf("tagger: fabric active state diverges from verified bundle")
		}
		rs, err := deploy.Import(g, live)
		if err != nil {
			return res, err
		}
		s.Net.InstallTagger(rs)
	}

	wd := s.Net.StartWatchdog(500 * time.Microsecond)
	s.Run()
	res.Watchdog = *wd
	res.Deadlocked = wd.DeadlockSamples > 0
	res.FirstDeadlock = wd.FirstDeadlock
	res.Drops = s.Net.Drops()
	// Reboots, flaps and a deadlock's standing queues are where the
	// simulator's bookkeeping is most exposed: a soak that ends with it
	// inconsistent has no verdict.
	if err := s.Net.CheckInvariants(); err != nil {
		return res, fmt.Errorf("tagger: chaos soak seed %d (%s Tagger): %w", seed, arm, err)
	}
	return res, nil
}

// ChaosSweep runs one independent chaos soak per seed, fanned across
// o.Par workers (<= 0 means GOMAXPROCS), and returns the verdicts in seed
// order. Each run owns its Network and — when o.Ops is non-nil — a
// private telemetry registry, merged into o.Ops in seed order after every
// run completes, so par=1 and par=N produce identical results and
// identical aggregate telemetry (the -race determinism gate pins this).
func ChaosSweep(seeds []int64, withTagger bool, o RunOptions) ([]ChaosSoakResult, error) {
	return sweep.RunMerged(seeds, o.Par, o.Ops,
		func(seed int64, runReg *telemetry.Registry) (ChaosSoakResult, error) {
			run := o
			run.Ops = runReg
			return ChaosSoakWith(seed, withTagger, run)
		})
}

// --- §7 compression ablation -------------------------------------------------------------

// CompressionAblation reports entry counts at each compression level for
// the testbed's deployed rule set.
func CompressionAblation() tcam.CompressionLevels {
	c := paper.Testbed()
	rs := core.ClosRules(c.Graph, 1, 1)
	return tcam.Levels(rs.Rules())
}

// --- §6 churn survival -------------------------------------------------------

// ChurnEventResult records one churn event's end-to-end outcome: the
// rule delta the controller pushed and whether the fabric tracked intent
// through it.
type ChurnEventResult struct {
	Event string // e.g. "link-down T1-L1"
	Stats controller.DeltaStats
}

// ChurnSoakResult summarizes one seeded churn soak: a generated
// link-flap / drain / pod-add sequence driven through the incremental
// controller with per-switch delta deploys, a mid-run switch reboot
// repaired by reconciliation, and a final convergence verdict.
type ChurnSoakResult struct {
	Seed      int64
	Events    []ChurnEventResult
	PodsAdded int
	// Rebooted is the switch wiped mid-run; ReconcileFixed counts the
	// switches Reconcile() had to re-drive toward intent afterwards.
	Rebooted       string
	ReconcileFixed int
	// Converged reports whether every switch's active rules equal the
	// controller's intent bundle after the full sequence.
	Converged  bool
	FinalRules int
	// ValidationDeadlocked reports whether the traced post-churn
	// validation run of the converged fabric deadlocked (it must not —
	// the deployed rules exist to prevent exactly that); Capture is what
	// that run's trace shed. Both are set only under RunOptions.Trace.
	ValidationDeadlocked bool
	Capture              CaptureStats
}

// RulesMoved totals the rule-level churn across every delta push.
func (r ChurnSoakResult) RulesMoved() (added, removed, modified int) {
	for _, ev := range r.Events {
		added += ev.Stats.RulesAdded
		removed += ev.Stats.RulesRemoved
		modified += ev.Stats.RulesModified
	}
	return
}

// ChurnSoak drives one seeded churn sequence over the paper testbed
// through the incremental pipeline: tracker -> Resynth -> per-switch
// two-phase delta deploys. Halfway through it reboots a spine (wiping
// its rules behind the controller's back) and lets Reconcile repair it.
// The sequence must end converged: fabric active state == intent bundle
// on every switch.
//
// The churn pipeline itself is controller-only. With o.Trace set the
// soak then validates the converged fabric in the packet simulator
// under an event trace: the fabric's ACTIVE bundle (not the
// controller's intent) is imported, routes are recomputed over the
// post-churn topology, cross-pod flows run for a few milliseconds and
// every pause/resume/demotion lands in <Trace>.seed<N> — which is what
// makes `taggersim -exp churn -trace` produce an analyzable file.
func ChurnSoak(seed int64, events int, o RunOptions) (ChurnSoakResult, error) {
	res := ChurnSoakResult{Seed: seed}
	c := paper.Testbed()
	g := c.Graph
	fab := chaos.NewFabric(g.SwitchNames())
	ctl, err := controller.NewChurn(g,
		controller.KBouncePolicy(func() []topology.NodeID { return c.ToRs }, 1),
		controller.WithAgent(fab),
		controller.WithDeployConfig(controller.DeployConfig{
			MaxAttempts: 5,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  20 * time.Millisecond,
			JitterSeed:  seed,
		}))
	if err != nil {
		return res, err
	}

	seq := chaos.GenerateChurn(chaos.ChurnConfig{
		Links:    g.SwitchLinks(),
		Switches: g.SwitchNames(),
		Events:   events,
		PodAdds:  1,
	}, seed)

	for i, ev := range seq {
		var cev controller.Event
		switch ev.Kind {
		case chaos.ChurnLinkDown:
			cev = controller.Event{Kind: controller.EventLinkDown,
				A: g.MustLookup(ev.A), B: g.MustLookup(ev.B)}
		case chaos.ChurnLinkUp:
			cev = controller.Event{Kind: controller.EventLinkUp,
				A: g.MustLookup(ev.A), B: g.MustLookup(ev.B)}
		case chaos.ChurnDrain:
			cev = controller.Event{Kind: controller.EventSwitchDrain,
				A: g.MustLookup(ev.Switch)}
		case chaos.ChurnUndrain:
			cev = controller.Event{Kind: controller.EventSwitchUndrain,
				A: g.MustLookup(ev.Switch)}
		case chaos.ChurnPodAdd:
			if err := c.Expand(1); err != nil {
				return res, fmt.Errorf("tagger: churn event %d: %w", i, err)
			}
			fab.Add(g.SwitchNames()...)
			res.PodsAdded++
			cev = controller.Event{Kind: controller.EventExpansion}
		default:
			return res, fmt.Errorf("tagger: unknown churn kind %v", ev.Kind)
		}
		if err := ctl.HandleChurn(cev); err != nil {
			return res, fmt.Errorf("tagger: churn event %d (%s): %w", i, ev, err)
		}
		log := ctl.DeltaLog()
		res.Events = append(res.Events, ChurnEventResult{
			Event: ev.String(),
			Stats: log[len(log)-1],
		})

		// Midway, a switch loses its rules to a reboot; the periodic
		// reconciliation sweep must notice and re-drive it to intent.
		if i == len(seq)/2 {
			res.Rebooted = "S1"
			fab.Reboot(res.Rebooted)
			fixed, err := ctl.Reconcile()
			if err != nil {
				return res, fmt.Errorf("tagger: reconcile after reboot: %w", err)
			}
			res.ReconcileFixed = fixed
		}
	}

	intent := ctl.Bundle()
	res.Converged = len(deploy.Diff(fab.ActiveBundle(intent.MaxTag), intent)) == 0
	for _, sb := range intent.Switches {
		res.FinalRules += len(sb.Rules)
	}
	if o.Trace == "" {
		return res, nil
	}

	rs, err := deploy.Import(g, fab.ActiveBundle(intent.MaxTag))
	if err != nil {
		return res, err
	}
	n := sim.New(g, routing.ComputeToHosts(g, routing.UpDown), sim.DefaultConfig())
	n.InstallTagger(rs)
	finish, err := o.capture(n, fmt.Sprintf("%s.seed%d", o.Trace, seed))
	if err != nil {
		return res, err
	}
	n.AddFlow(sim.FlowSpec{Name: "v1", Src: g.MustLookup("H5"), Dst: g.MustLookup("H1")})
	n.AddFlow(sim.FlowSpec{Name: "v2", Src: g.MustLookup("H9"), Dst: g.MustLookup("H1")})
	n.Run(5 * time.Millisecond)
	res.ValidationDeadlocked = n.Deadlocked()
	res.Capture, err = finish()
	return res, err
}
