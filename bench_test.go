package tagger

// One benchmark per table and figure of the paper's evaluation. Each
// bench both times the artifact's regeneration and reports the headline
// quantity as a custom metric, so `go test -bench=. -benchmem` doubles as
// the reproduction harness (see EXPERIMENTS.md for paper-vs-measured).

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/deploy"
	"repro/internal/elp"
	"repro/internal/paper"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/synthcache"
	"repro/internal/tcam"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/wire"
)

// --- Table 1: reroute probability -------------------------------------------

func BenchmarkTable1RerouteMeasurement(b *testing.B) {
	var p float64
	for i := 0; i < b.N; i++ {
		res := Table1(1, 200_000)
		p = res.OverallProbability()
	}
	b.ReportMetric(p, "reroute-prob")
}

// --- Tables 3/4 + Figure 5: the walk-through ---------------------------------

func BenchmarkTable3BruteForceRules(b *testing.B) {
	f := paper.NewFig5()
	var rules int
	for i := 0; i < b.N; i++ {
		sys, err := core.Synthesize(f.Graph, f.ELP.Paths(), core.Options{SkipMerge: true})
		if err != nil {
			b.Fatal(err)
		}
		rules = sys.Rules.Len()
	}
	b.ReportMetric(float64(rules), "rules")
}

func BenchmarkTable4GreedyRules(b *testing.B) {
	f := paper.NewFig5()
	var rules, tags int
	for i := 0; i < b.N; i++ {
		sys, err := core.Synthesize(f.Graph, f.ELP.Paths(), core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		rules = sys.Rules.Len()
		tags = sys.Runtime.NumSwitchTags()
	}
	b.ReportMetric(float64(rules), "rules")
	b.ReportMetric(float64(tags), "tags")
}

func BenchmarkFigure5Algorithm1(b *testing.B) {
	f := paper.NewFig5()
	var tags int
	for i := 0; i < b.N; i++ {
		bf := core.BruteForceN(f.Graph, f.ELP.Paths(), 1)
		tags = bf.NumSwitchTags()
	}
	b.ReportMetric(float64(tags), "tags")
}

func BenchmarkFigure5Algorithm2(b *testing.B) {
	f := paper.NewFig5()
	bf := core.BruteForceN(f.Graph, f.ELP.Paths(), 1)
	var tags int
	for i := 0; i < b.N; i++ {
		merged := core.GreedyMinimize(bf)
		tags = merged.NumSwitchTags()
	}
	b.ReportMetric(float64(tags), "tags")
}

// --- Table 5: Jellyfish scalability -------------------------------------------

func benchTable5(b *testing.B, switches, ports, extra int) {
	b.Helper()
	var row Table5Row
	for i := 0; i < b.N; i++ {
		var err error
		row, err = Table5Case(switches, ports, extra, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(row.Priorities), "priorities")
	b.ReportMetric(float64(row.Rules), "max-rules")
	b.ReportMetric(float64(row.LongestLossless), "longest")
}

func BenchmarkTable5Jellyfish50(b *testing.B)  { benchTable5(b, 50, 12, 0) }
func BenchmarkTable5Jellyfish100(b *testing.B) { benchTable5(b, 100, 16, 0) }
func BenchmarkTable5Jellyfish200(b *testing.B) { benchTable5(b, 200, 24, 0) }
func BenchmarkTable5JellyfishRandomPaths(b *testing.B) {
	benchTable5(b, 100, 16, 10000)
}

// BenchmarkTable5Jellyfish2000 is the paper's headline scalability row,
// 2 000 switches with 24 ports, run as `taggerscale -switches 2000 -ports
// 24` runs it: every fan-out stage at GOMAXPROCS workers. It takes
// seconds per op and a few GB of memory, so -short and -race skip it.
func BenchmarkTable5Jellyfish2000(b *testing.B) {
	if testing.Short() {
		b.Skip("Table 5's 2000-switch row skipped in -short")
	}
	if raceEnabled {
		b.Skip("Table 5's 2000-switch row skipped under the race detector")
	}
	var row Table5Row
	for i := 0; i < b.N; i++ {
		var err error
		row, err = Table5CaseWith(2000, 24, 0, 1, RunOptions{Par: 0})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(row.ELPSize), "paths")
	b.ReportMetric(float64(row.Priorities), "priorities")
	b.ReportMetric(float64(row.Rules), "max-rules")
}

// --- Figure 1 / Figure 3: CBD detection ----------------------------------------

// cycleLen is the length of Verify's witness CBD, 0 when tg has none.
func cycleLen(tg *core.TaggedGraph) int {
	var ve *core.VerifyError
	if errors.As(tg.Verify(), &ve) {
		return len(ve.Cycle)
	}
	return 0
}

// One shared lossless class, no Tagger: every vertex carries tag 1.
func BenchmarkFigure3CBDDetect(b *testing.B) {
	c := paper.Testbed()
	g := c.Graph
	paths := []routing.Path{paper.Fig3GreenPath(c), paper.Fig3BluePath(c)}
	ingress := func(from, to topology.NodeID) core.TagNode {
		return core.TagNode{Port: g.PortOn(to, g.PortToPeer(to, from)), Tag: 1}
	}
	var cyc int
	for i := 0; i < b.N; i++ {
		tg := core.NewTaggedGraph(g)
		for _, p := range paths {
			for h := 2; h < len(p); h++ {
				tg.AddEdge(ingress(p[h-2], p[h-1]), ingress(p[h-1], p[h]))
			}
		}
		cyc = cycleLen(tg)
	}
	b.ReportMetric(float64(cyc), "cycle-len")
}

func BenchmarkFigure3CBDUnderTagger(b *testing.B) {
	c := paper.Testbed()
	rs := core.ClosRules(c.Graph, 1, 1)
	paths := []routing.Path{paper.Fig3GreenPath(c), paper.Fig3BluePath(c)}
	var cyc int
	for i := 0; i < b.N; i++ {
		tg, _ := core.BuildRuleGraph(rs, paths, 1)
		cyc = cycleLen(tg)
	}
	b.ReportMetric(float64(cyc), "cycle-len") // 0: Tagger breaks the CBD
}

// --- Figure 4 / Figure 6: Clos tagging -----------------------------------------

func BenchmarkFigure4ClosSynthesis(b *testing.B) {
	c := paper.Testbed()
	set := elp.KBounce(c.Graph, c.ToRs, 1, nil)
	var queues int
	for i := 0; i < b.N; i++ {
		sys, err := core.ClosSynthesize(c.Graph, set.Paths(), 1)
		if err != nil {
			b.Fatal(err)
		}
		queues = sys.NumLosslessQueues()
	}
	b.ReportMetric(float64(queues), "queues")
}

func BenchmarkFigure6GreedyVsOptimal(b *testing.B) {
	var res figure6Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = figure6()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.GreedyQueues), "greedy-queues")
	b.ReportMetric(float64(res.OptimalQueues), "optimal-queues")
}

// --- Figures 10-12: simulator experiments ---------------------------------------

func benchFigure(b *testing.B, run func(bool) ExperimentResult, withTagger bool) {
	b.Helper()
	var res ExperimentResult
	for i := 0; i < b.N; i++ {
		res = run(withTagger)
	}
	dl := 0.0
	if res.Deadlocked {
		dl = 1
	}
	var late float64
	for _, f := range res.Flows {
		late += f.LateGbps
	}
	b.ReportMetric(dl, "deadlocked")
	b.ReportMetric(late, "late-gbps")
	// The engine's own account: a deadlocked or throttled run is fast
	// because it dispatches fewer events, not because each costs less.
	events := float64(res.Engine.Events())
	b.ReportMetric(events, "events/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/events, "ns/event")
	b.ReportMetric(float64(res.Engine.MaxPacketsLive), "max-pkts-live")
}

func BenchmarkFigure10Baseline(b *testing.B)   { benchFigure(b, Figure10, false) }
func BenchmarkFigure10WithTagger(b *testing.B) { benchFigure(b, Figure10, true) }
func BenchmarkFigure11Baseline(b *testing.B)   { benchFigure(b, figure11, false) }
func BenchmarkFigure11WithTagger(b *testing.B) { benchFigure(b, figure11, true) }
func BenchmarkFigure12Baseline(b *testing.B)   { benchFigure(b, figure12, false) }
func BenchmarkFigure12WithTagger(b *testing.B) { benchFigure(b, figure12, true) }

// --- §8 overhead -------------------------------------------------------------------

func BenchmarkTaggerOverhead(b *testing.B) {
	var res OverheadResult
	for i := 0; i < b.N; i++ {
		res = Overhead()
	}
	b.ReportMetric(res.PenaltyPercent(), "penalty-%")
	b.ReportMetric(res.BaselineGbps, "baseline-gbps")
}

// --- §5.3 Algorithm 2 runtime scaling (S1) -------------------------------------------

func benchAlg2(b *testing.B, switches, ports int) {
	b.Helper()
	j, err := NewJellyfish(JellyfishConfig{Switches: switches, Ports: ports, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	set := elp.ShortestAll(j.Graph, j.Switches)
	bf := core.BruteForceN(j.Graph, set.Paths(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.GreedyMinimize(bf)
	}
}

func BenchmarkAlgorithm2Jellyfish50(b *testing.B)  { benchAlg2(b, 50, 12) }
func BenchmarkAlgorithm2Jellyfish100(b *testing.B) { benchAlg2(b, 100, 16) }
func BenchmarkAlgorithm2Jellyfish200(b *testing.B) { benchAlg2(b, 200, 24) }

// --- §6 multi-class (S2) ---------------------------------------------------------------

func BenchmarkMultiClassComposition(b *testing.B) {
	var res MultiClassResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = MultiClass(2, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.SharedQueues), "shared-queues")
	b.ReportMetric(float64(res.NaiveQueues), "naive-queues")
}

// --- §7 rule compression (S3) -------------------------------------------------------------

func BenchmarkRuleCompression(b *testing.B) {
	c := paper.Testbed()
	rs := core.ClosRules(c.Graph, 1, 1)
	rules := rs.Rules()
	var entries int
	for i := 0; i < b.N; i++ {
		entries = len(CompressRules(rules))
	}
	b.ReportMetric(float64(len(rules)), "exact-rules")
	b.ReportMetric(float64(entries), "tcam-entries")
}

// --- BCube (§5.3) ------------------------------------------------------------------------

func BenchmarkBCubeSynthesis(b *testing.B) {
	var tags int
	for i := 0; i < b.N; i++ {
		var err error
		tags, err = BCubeTags(4, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tags), "tags")
}

// --- Prevention vs detect-and-break recovery (related-work baseline) -----------------------

func BenchmarkRecoveryVsTagger(b *testing.B) {
	var res RecoveryComparison
	for i := 0; i < b.N; i++ {
		res = CompareRecovery()
	}
	b.ReportMetric(float64(res.RecoveryDetections), "reformations")
	b.ReportMetric(res.RecoveryGoodputGbps, "recovery-gbps")
	b.ReportMetric(res.TaggerGoodputGbps, "tagger-gbps")
}

// --- DCQCN interaction (§6) -------------------------------------------------------------

func BenchmarkDCQCNInteraction(b *testing.B) {
	var res DCQCNResult
	for i := 0; i < b.N; i++ {
		res = DCQCNExperiment()
	}
	b.ReportMetric(float64(res.PausesWithoutCC), "pauses-no-cc")
	b.ReportMetric(float64(res.PausesWithCC), "pauses-cc")
}

// --- §3.3 queue budget --------------------------------------------------------------------

func BenchmarkQueueBudget(b *testing.B) {
	var rows []QueueBudgetRow
	for i := 0; i < b.N; i++ {
		rows = QueueBudget()
	}
	b.ReportMetric(float64(rows[0].MaxLossless), "queues-40g")
	b.ReportMetric(float64(rows[1].MaxLossless), "queues-100g")
}

// --- §7 compression levels -------------------------------------------------------------------

func BenchmarkCompressionLevels(b *testing.B) {
	var lv tcam.CompressionLevels
	for i := 0; i < b.N; i++ {
		lv = CompressionAblation()
	}
	b.ReportMetric(float64(lv.Exact), "exact")
	b.ReportMetric(float64(lv.InPortOnly), "inport-only")
	b.ReportMetric(float64(lv.Joint), "joint")
}

// --- §6 isolation trade-off ----------------------------------------------------------------

func BenchmarkIsolationCost(b *testing.B) {
	var res IsolationResult
	for i := 0; i < b.N; i++ {
		res = IsolationCost()
	}
	b.ReportMetric(res.VictimCleanGbps, "victim-clean-gbps")
	b.ReportMetric(res.VictimMixedGbps, "victim-mixed-gbps")
}

// --- Organic failure reconvergence (§3 end to end) --------------------------------------------

func BenchmarkReconvergenceBaseline(b *testing.B) {
	var res ExperimentResult
	for i := 0; i < b.N; i++ {
		res = Reconvergence(false, 8)
	}
	dl := 0.0
	if res.Deadlocked {
		dl = 1
	}
	b.ReportMetric(dl, "deadlocked")
}

func BenchmarkReconvergenceWithTagger(b *testing.B) {
	var res ExperimentResult
	for i := 0; i < b.N; i++ {
		res = Reconvergence(true, 8)
	}
	dl := 0.0
	if res.Deadlocked {
		dl = 1
	}
	var late float64
	for _, f := range res.Flows {
		late += f.LateGbps
	}
	b.ReportMetric(dl, "deadlocked")
	b.ReportMetric(late, "late-gbps")
}

// --- Frame-level dataplane -------------------------------------------------------------------

func BenchmarkDataplaneFrameForward(b *testing.B) {
	c := paper.Testbed()
	rs := core.ClosRules(c.Graph, 1, 1)
	fab := dataplane.Compile(c.Graph, rs)
	green := paper.Fig3GreenPath(c)
	pkt := &wire.RoCEv2Packet{
		IP:  wire.IPv4{DSCP: 1, TTL: 64},
		BTH: wire.BTH{Opcode: wire.OpcodeRCWriteOnly},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Encode + full 6-hop pipeline walk: the cost a software
		// forwarder would pay per packet.
		frame := wire.EncodeRoCEv2(pkt)
		if _, err := fab.ForwardFrame(frame, green); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Incremental re-synthesis under churn (§4 deployability) ---------------------------------

// benchFlapClos is large enough that a single link flap touches only a
// sliver of the rule space — the regime where incremental re-synthesis
// pays for itself. The wide spine layer (64 of the 80 links are
// leaf-spine) makes leaf-spine the dominant link class, so that is the
// link the flap benchmarks exercise.
func benchFlapClos(b *testing.B) (*topology.Clos, *elp.Set) {
	b.Helper()
	cl, err := topology.NewClos(topology.ClosConfig{
		Pods: 4, ToRsPerPod: 2, LeafsPerPod: 2, Spines: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	return cl, elp.KBounce(cl.Graph, cl.ToRs, 1, nil)
}

// BenchmarkResynthSingleLinkFlap: one L1-S1 down + up cycle through the
// incremental path (tracker delta + Resynth.Apply twice per iteration).
func BenchmarkResynthSingleLinkFlap(b *testing.B) {
	cl, set := benchFlapClos(b)
	g := cl.Graph
	rs, err := core.NewResynth(g, set.Paths(), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	tr := elp.NewTracker(g, set)
	l1, s1 := g.MustLookup("L1"), g.MustLookup("S1")
	b.ReportMetric(float64(set.Len()), "paths")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.FailLink(l1, s1)
		if _, err := rs.Apply(nil, tr.LinkDown(l1, s1)); err != nil {
			b.Fatal(err)
		}
		g.RestoreLink(l1, s1)
		if _, err := rs.Apply(tr.LinkUp(l1, s1), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResynthDrainUndrain: one leaf drain + undrain cycle through the
// incremental path — the churn controller's costliest event pair, since a
// leaf carries far more paths than any one link.
func BenchmarkResynthDrainUndrain(b *testing.B) {
	cl, set := benchFlapClos(b)
	g := cl.Graph
	rs, err := core.NewResynth(g, set.Paths(), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	tr := elp.NewTracker(g, set)
	l1 := g.MustLookup("L1")
	b.ReportMetric(float64(set.Len()), "paths")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rs.Apply(nil, tr.Drain(l1)); err != nil {
			b.Fatal(err)
		}
		if _, err := rs.Apply(tr.Undrain(l1), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullSynthSingleLinkFlap: the same flap handled the pre-churn
// way — re-enumerate the ELP and synthesize from scratch after each
// topology change. The Resynth benchmark above must beat this by >=10x.
func BenchmarkFullSynthSingleLinkFlap(b *testing.B) {
	cl, _ := benchFlapClos(b)
	g := cl.Graph
	l1, s1 := g.MustLookup("L1"), g.MustLookup("S1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.FailLink(l1, s1)
		set := elp.KBounce(g, cl.ToRs, 1, nil)
		if _, err := core.Synthesize(g, set.Paths(), core.Options{}); err != nil {
			b.Fatal(err)
		}
		g.RestoreLink(l1, s1)
		set = elp.KBounce(g, cl.ToRs, 1, nil)
		if _, err := core.Synthesize(g, set.Paths(), core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Trace capture cost ------------------------------------------------------------------

// traceCaptureEvents is the simulator's hot-path event mix: PFC
// transitions with queue depths plus a drop, all names already seen.
var traceCaptureEvents = []sim.TraceEvent{
	{T: 1, Kind: "pause", Node: "T1", Peer: "L1", Prio: 1, Depth: 9216},
	{T: 2, Kind: "resume", Node: "T1", Peer: "L1", Prio: 1, Depth: 512},
	{T: 3, Kind: "drop", Node: "T1", Flow: "f1", Reason: "ttl"},
}

// BenchmarkTraceCapture measures the per-event capture cost as
// taggersim wires it: a BinaryTracer writing straight to a file, which
// encodes in the simulator's goroutine into a 64 KiB buffer. It must
// stay at 0 allocs/op (TestBinaryTracerZeroAlloc and the benchgate's
// -alloc-threshold pin it).
func BenchmarkTraceCapture(b *testing.B) {
	b.Run("Binary", func(b *testing.B) {
		f, err := os.Create(filepath.Join(b.TempDir(), "trace.bin"))
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		bt, err := sim.NewBinaryTracer(f, trace.Config{})
		if err != nil {
			b.Fatal(err)
		}
		for _, ev := range traceCaptureEvents { // warm the intern table
			bt.Trace(ev)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bt.Trace(traceCaptureEvents[i%len(traceCaptureEvents)])
		}
		b.StopTimer()
		if err := bt.Close(); err != nil {
			b.Fatal(err)
		}
	})
}

// --- Simulator raw throughput --------------------------------------------------------------

func BenchmarkSimulatorPacketRate(b *testing.B) {
	c := paper.Testbed()
	for i := 0; i < b.N; i++ {
		tb := routing.ComputeToHosts(c.Graph, routing.UpDown)
		n := sim.New(c.Graph, tb, sim.DefaultConfig())
		n.AddFlow(sim.FlowSpec{Name: "x", Src: c.Hosts[0], Dst: c.Hosts[8]})
		n.Run(5_000_000) // 5 ms of simulated 40G traffic
	}
}

// --- Synthesis cache: warm hits and pod memoization ---------------------------

// synthCacheJellyfish builds the Jellyfish200 workload the cache
// benchmarks share: the fabric and its 1-shortest-path ELP.
func synthCacheJellyfish(tb testing.TB) (*topology.Jellyfish, []routing.Path) {
	tb.Helper()
	j, err := topology.NewJellyfish(topology.JellyfishConfig{Switches: 200, Ports: 24, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return j, elp.ShortestAllN(j.Graph, j.Switches, 1).Paths()
}

// BenchmarkSynthCacheCold is the baseline for the warm-hit claim: every
// iteration pays the full pipeline on a fresh cache — canonicalization,
// Algorithms 1+2, TCAM compilation.
func BenchmarkSynthCacheCold(b *testing.B) {
	j, paths := synthCacheJellyfish(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := synthcache.New(8)
		if _, err := cache.Synthesize(j.Graph, paths, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthCacheWarm times the steady state a long-lived controller
// or sweep sees: the same (topology, ELP) request answered from the
// cache. Pair with BenchmarkSynthCacheCold for the ≥50x tentpole ratio
// (gated in-suite by TestSynthCacheWarmSpeedup).
func BenchmarkSynthCacheWarm(b *testing.B) {
	j, paths := synthCacheJellyfish(b)
	cache := synthcache.New(8)
	if _, err := cache.Synthesize(j.Graph, paths, core.Options{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := cache.Synthesize(j.Graph, paths, core.Options{})
		if err != nil || !r.Hit {
			b.Fatalf("warm request missed (hit=%v err=%v)", r.Hit, err)
		}
	}
	b.StopTimer()
	b.ReportMetric(cache.Stats().HitRatio(), "hit-ratio")
}

// BenchmarkFatTreeSynthFromScratch is the cold baseline for pod
// memoization: full KBounce enumeration over every pod pair of a k=8
// fat-tree (5.2M paths) plus Clos rule synthesis and replay. k=16 (the
// paper's largest) is infeasible here — enumeration alone is hours —
// which is exactly the motivation for stamping.
func BenchmarkFatTreeSynthFromScratch(b *testing.B) {
	ft, err := topology.NewFatTree(8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set := elp.KBounce(ft.Graph, ft.Edges, 1, nil)
		if _, err := core.ClosSynthesize(ft.Graph, set.Paths(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFatTreePodMemoized builds the same system via
// representative-pod stamping: one pod pair enumerated and replayed, the
// other 54 ordered pairs stamped by pod-permutation automorphisms
// (rule-identical — see make cache-fuzz). Each iteration uses a fresh
// cache so it times the memoized BUILD, not a warm hit.
func BenchmarkFatTreePodMemoized(b *testing.B) {
	ft, err := topology.NewFatTree(8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := synthcache.New(8)
		r, err := cache.ClosKBounce(ft.Graph, ft.Edges, 1)
		if err != nil || !r.PodMemoized {
			b.Fatalf("pod stamping not used (memoized=%v err=%v)", r.PodMemoized, err)
		}
	}
}

// fatTree8Rep is the representative pod pair the stamped k=8 build
// enumerates: pod-0 edge switches toward pod-0 and pod-1 edge switches
// (Edges is pod-major), 148 048 one-bounce paths.
func fatTree8Rep(b *testing.B) (g *topology.Graph, srcs, dsts []topology.NodeID) {
	ft, err := topology.NewFatTree(8)
	if err != nil {
		b.Fatal(err)
	}
	return ft.Graph, ft.Edges[:ft.K/2], ft.Edges[:ft.K]
}

// BenchmarkKBounceFromFatTree8Rep is the serial enumeration the stamped
// build cannot avoid (segment BFS, prefix walk), plus what a KBounceFrom
// caller adds on top: Set's per-path validity check. The stamped build
// reads the enumerator's list and skips the check.
func BenchmarkKBounceFromFatTree8Rep(b *testing.B) {
	g, srcs, dsts := fatTree8Rep(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := elp.KBounceFrom(g, srcs, dsts, 1, nil).Len(); n != 148048 {
			b.Fatalf("%d paths, want 148048", n)
		}
	}
}

// BenchmarkBuildRuleGraphFatTree8Rep is the replay of those paths through
// the Clos rules into the runtime fragment the stamper copies.
func BenchmarkBuildRuleGraphFatTree8Rep(b *testing.B) {
	g, srcs, dsts := fatTree8Rep(b)
	paths := elp.KBounceFrom(g, srcs, dsts, 1, nil).Paths()
	rules := core.ClosRules(g, 1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, lossy := core.BuildRuleGraph(rules, paths, 1); len(lossy) != 0 {
			b.Fatalf("%d lossy paths", len(lossy))
		}
	}
}

// --- The start path: ELP enumeration, export, per-switch TCAM images --------------------------

// BenchmarkELPShortestAllJellyfish200 is the share of a warm controller
// start that no cache absorbs: 200 BFS trees over one sorted adjacency
// and 39 800 validated, deduplicated Set.Add calls.
func BenchmarkELPShortestAllJellyfish200(b *testing.B) {
	j, err := topology.NewJellyfish(topology.JellyfishConfig{Switches: 200, Ports: 24, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := elp.ShortestAll(j.Graph, j.Switches).Len(); n != 39800 {
			b.Fatalf("%d paths, want 39800", n)
		}
	}
}

// startPathRules synthesizes the Jellyfish200 ruleset the export and
// compile benchmarks share.
func startPathRules(b *testing.B) (*topology.Jellyfish, *core.Ruleset) {
	b.Helper()
	j, paths := synthCacheJellyfish(b)
	sys, err := core.Synthesize(j.Graph, paths, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return j, sys.Rules
}

// BenchmarkDeployExportJellyfish200: ruleset to per-switch bundle, the
// sorted order already memoized (as it is on a cache hit).
func BenchmarkDeployExportJellyfish200(b *testing.B) {
	_, rs := startPathRules(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := len(deploy.Export(rs).Switches); got != 200 {
			b.Fatalf("bundle covers %d switches, want 200", got)
		}
	}
}

// BenchmarkDataplaneCompileJellyfish200: one compressed TCAM image per
// switch, each cut from the ruleset's sorted order (this was quadratic —
// a full sort per switch, about a second — until RulesAt used the memo).
func BenchmarkDataplaneCompileJellyfish200(b *testing.B) {
	j, rs := startPathRules(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dataplane.Compile(j.Graph, rs).TotalEntries() == 0 {
			b.Fatal("empty image")
		}
	}
}

// TestSynthCacheWarmSpeedup gates the tentpole claim in-suite: a warm
// cache hit on Jellyfish200 must be at least 50x faster than cold
// synthesis (in practice orders of magnitude — the warm path is two map
// lookups and a hash of the option key).
func TestSynthCacheWarmSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing gate skipped under the race detector")
	}
	j, paths := synthCacheJellyfish(t)
	cache := synthcache.New(8)
	start := time.Now()
	if _, err := cache.Synthesize(j.Graph, paths, core.Options{}); err != nil {
		t.Fatal(err)
	}
	cold := time.Since(start)

	const iters = 200
	warm := time.Duration(1<<63 - 1)
	for round := 0; round < 3; round++ {
		start = time.Now()
		for i := 0; i < iters; i++ {
			r, err := cache.Synthesize(j.Graph, paths, core.Options{})
			if err != nil || !r.Hit {
				t.Fatalf("warm request missed (hit=%v err=%v)", r.Hit, err)
			}
		}
		if d := time.Since(start) / iters; d < warm {
			warm = d
		}
	}
	if ratio := float64(cold) / float64(warm); ratio < 50 {
		t.Errorf("warm cache speedup %.1fx, want >= 50x (cold %v, warm %v)", ratio, cold, warm)
	}
}

// TestFatTreePodMemoizedSpeedup gates the pod-memoization claim: the
// stamped k=8 fat-tree build must be at least 8x faster than from
// scratch (measured 18-25x on 2 cores, 5-6 s against 0.24-0.28 s: the
// stamped build still enumerates and replays half the representative pod
// pair and materializes all 5.2M paths).
func TestFatTreePodMemoizedSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing gate skipped under the race detector")
	}
	ft, err := topology.NewFatTree(8)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	set := elp.KBounce(ft.Graph, ft.Edges, 1, nil)
	if _, err := core.ClosSynthesize(ft.Graph, set.Paths(), 1); err != nil {
		t.Fatal(err)
	}
	scratch := time.Since(start)

	// The from-scratch build leaves 5.2M individually allocated paths
	// behind. Collect them first, or the stamped build is timed while the
	// collector marks and sweeps that heap on the cores it fans out over.
	runtime.GC()

	memo := time.Duration(1<<63 - 1)
	for round := 0; round < 3; round++ {
		cache := synthcache.New(8)
		start = time.Now()
		r, err := cache.ClosKBounce(ft.Graph, ft.Edges, 1)
		if err != nil || !r.PodMemoized {
			t.Fatalf("pod stamping not used (memoized=%v err=%v)", r.PodMemoized, err)
		}
		if d := time.Since(start); d < memo {
			memo = d
		}
	}
	ratio := float64(scratch) / float64(memo)
	t.Logf("pod-memoized speedup %.1fx (scratch %v, memoized %v)", ratio, scratch, memo)
	if ratio < 8 {
		t.Errorf("pod-memoized speedup %.1fx, want >= 8x", ratio)
	}
}
