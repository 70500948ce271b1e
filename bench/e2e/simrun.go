package main

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"time"

	tagger "repro"
	"repro/internal/paper"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/trace/pipeline"
	"repro/internal/workload"
)

// fig12Reference is the summed late-window goodput of the Figure 12
// run with Tagger, to four significant figures, as every committed
// BENCH_*.json since the seed records it.
const fig12Reference = "89.95"

// simCounts are the simulated statistics of one scenario run. They are
// functions of the scenario alone, so two runs of one scenario must
// agree on every field, bit for bit.
type simCounts struct {
	goodputGbps float64
	delivered   int64 // bytes received by all flows
	drops       int64
	pauses      int64
}

// scenarioCounts extracts the results a figure needs from a finished
// scenario: deadlock verdict, drop counters, every flow's rate series
// and its mean over [from, Duration).
func scenarioCounts(s *workload.Scenario, from time.Duration) (c simCounts, deadlocked bool) {
	deadlocked = s.Net.Deadlocked()
	c.drops = s.Net.Drops().Total()
	for _, f := range s.Flows {
		f.Series(s.Duration)
		c.goodputGbps += f.MeanGbps(from, s.Duration)
		c.delivered += f.Received()
	}
	return c, deadlocked
}

// simRates sets the two host-speed figures of the sim layer, once the
// spans have given the median host time of Run: packets delivered per
// second of host time, and host seconds per simulated millisecond.
func simRates(m metricSet, deliveredBytes float64, horizon time.Duration) {
	runMs := m["sim.run_ms"]
	if runMs <= 0 {
		return
	}
	pkts := deliveredBytes / float64(sim.DefaultConfig().MTU)
	m["sim.delivered_mpkts_per_s"] = pkts / (runMs / 1e3) / 1e6
	m["sim.host_s_per_sim_ms"] = (runMs / 1e3) / (float64(horizon) / float64(time.Millisecond))
}

// fig12 is sim_fig12_tagger: build the Figure 12 shuffle with 1-bounce
// Tagger rules, run it, extract the results.
type fig12 struct {
	routingStage
	sz      sizes
	first   *simCounts // the gate's counts; every op must reproduce them
	horizon time.Duration
}

func setupFig12(seed int64, sz sizes, rec *recorder) (instance, error) {
	return &fig12{sz: sz}, nil
}

// run performs the op; tracer, when non-nil, is attached before the run
// (the gate counts PFC events with it).
func (w *fig12) run(rec *recorder, tracer sim.Tracer) (simCounts, *workload.Scenario, error) {
	var s *workload.Scenario
	rec.span("workload.build", func() {
		s = workload.Figure12(workload.Options{Bounces: 1})
		if w.sz.simHorizon > 0 {
			s.Duration = w.sz.simHorizon
		}
		if tracer != nil {
			s.Net.SetTracer(tracer)
		}
	})
	rec.span("sim.run", s.Run)
	var c simCounts
	var deadlocked bool
	rec.span("sim.results", func() { c, deadlocked = scenarioCounts(s, s.Duration*3/4) })
	if deadlocked {
		return c, s, fmt.Errorf("figure 12 with Tagger deadlocked: %v", s.Net.DetectDeadlock())
	}
	if v := s.Net.Drops().HeadroomViolation; v != 0 {
		return c, s, fmt.Errorf("figure 12 dropped %d lossless packets", v)
	}
	return c, s, nil
}

func (w *fig12) op(rec *recorder) error {
	c, _, err := w.run(rec, nil)
	if err != nil {
		return err
	}
	if w.first != nil && (c.goodputGbps != w.first.goodputGbps || c.delivered != w.first.delivered || c.drops != w.first.drops) {
		return fmt.Errorf("simulated statistics changed between runs of one scenario: %+v then %+v", *w.first, c)
	}
	return nil
}

func (w *fig12) minOps() int { return 1 }

func (w *fig12) gate(rec *recorder, m metricSet) error {
	counter := &sim.CountingTracer{}
	c, s, err := w.run(nil, counter)
	if err != nil {
		return err
	}
	if got := fmt.Sprintf("%.4g", c.goodputGbps); w.sz.checkReference && got != fig12Reference {
		return fmt.Errorf("figure 12 late-window goodput %s Gb/s, reference %s", got, fig12Reference)
	}
	c.pauses = counter.Counts["pause"]
	w.first, w.horizon = &c, s.Duration
	m["sim.goodput_gbps"] = c.goodputGbps
	m["sim.drops_total"] = float64(c.drops)
	m["sim.pause_events"] = float64(c.pauses)
	return nil
}

// routingStage is the staged part both simulation workloads share: it
// times the routing tables a scenario build computes inside.
type routingStage struct{}

func (routingStage) staged(rec *recorder) error {
	g := paper.Testbed().Graph
	rec.span("routing.tables", func() { routing.ComputeToHosts(g, routing.UpDown) })
	return nil
}

func (w *fig12) finish(m metricSet) error {
	simRates(m, float64(w.first.delivered), w.horizon)
	return nil
}

// forensics is sim_cbd_forensics: the detect-and-break arm of the
// DetectMatrix scenario (Figure 3 CBD pair, background flows, off-path
// reboots) with the in-switch detector mitigating by drop, deadlock
// tracking, the watchdog, the flight recorder and a binary tracer into
// memory; then the post-mortem of every incident and the summary
// pipeline over the whole capture. Ops cycle over forensicsSeeds
// scenario seeds derived from the benchmark seed.
type forensics struct {
	routingStage
	seed    int64
	sz      sizes
	next    int
	horizon time.Duration

	// cycle holds the exact counts of the first op on each scenario seed;
	// later ops on that seed must reproduce them.
	cycle []forensicsCounts
}

type forensicsCounts struct {
	sim            simCounts
	onsets         int
	recoveries     int
	detections     int
	falsePositives int
	meanTTD        time.Duration
	captureEvents  int64
	captureBytes   int
	incidents      int
	overwrites     int64
}

func setupForensics(seed int64, sz sizes, rec *recorder) (instance, error) {
	return &forensics{seed: seed, sz: sz}, nil
}

func (w *forensics) minOps() int { return w.sz.forensicsSeeds }

func (w *forensics) op(rec *recorder) error {
	i := w.next % w.sz.forensicsSeeds
	w.next++
	c, err := w.run(rec, w.seed*int64(w.sz.forensicsSeeds)+int64(i))
	if err != nil {
		return err
	}
	if i >= len(w.cycle) {
		w.cycle = append(w.cycle, c)
	} else if w.cycle[i] != c {
		return fmt.Errorf("simulated statistics changed between runs of one scenario: %+v then %+v", w.cycle[i], c)
	}
	return nil
}

func (w *forensics) run(rec *recorder, scenarioSeed int64) (forensicsCounts, error) {
	var c forensicsCounts
	var s *workload.Scenario
	var capture bytes.Buffer
	var bt *sim.BinaryTracer
	var det *sim.DetectorStats
	var fr *sim.FlightRecorder
	var track *sim.DeadlockTrack
	var wd *sim.WatchdogStats
	var err error
	rec.span("workload.build", func() {
		s = workload.DetectMatrix(workload.Options{}, scenarioSeed)
		if w.sz.simHorizon > 0 {
			s.Duration = w.sz.simHorizon
		}
		w.horizon = s.Duration
		if bt, err = sim.NewBinaryTracer(&capture, trace.Config{}); err != nil {
			return
		}
		s.Net.SetTracer(bt)
		det = s.Net.EnableDetector(sim.DetectorConfig{Mitigation: sim.MitigateDrop})
		fr = s.Net.EnableFlightRecorder(sim.FlightRecConfig{})
		track = s.Net.TrackDeadlocks()
		wd = s.Net.StartWatchdog(500 * time.Microsecond)
	})
	if err != nil {
		return c, fmt.Errorf("starting the binary tracer: %w", err)
	}
	rec.span("sim.run", s.Run)
	rec.span("trace.close", func() { err = bt.Close() })
	if err != nil {
		return c, fmt.Errorf("closing the capture: %w", err)
	}

	namedCycle := false
	rec.span("pipeline.postmortem", func() {
		for _, inc := range fr.Incidents() {
			var report string
			if report, err = tagger.PostmortemReport(inc.Data); err != nil {
				return
			}
			if strings.Contains(report, "wait-for cycle (") {
				namedCycle = true
			}
		}
	})
	if err != nil {
		return c, fmt.Errorf("post-mortem: %w", err)
	}

	var sum *pipeline.Summary
	var src pipeline.Source
	rec.span("pipeline.summary", func() {
		if src, err = pipeline.Open(bytes.NewReader(capture.Bytes()), pipeline.FormatAuto); err != nil {
			return
		}
		norm := &pipeline.Normalize{}
		sum = pipeline.NewSummary()
		if err = pipeline.Run(src, []pipeline.Stage{norm}, sum); err != nil {
			return
		}
		sum.Report(io.Discard, 10, src.Skipped()+norm.Dropped)
	})
	if err != nil {
		return c, fmt.Errorf("summary pipeline: %w", err)
	}

	rec.span("sim.results", func() { c.sim, _ = scenarioCounts(s, 2*time.Millisecond) })
	for _, n := range sum.Pauses {
		c.sim.pauses += int64(n)
	}
	c.onsets, c.recoveries = track.Onsets, track.Recoveries
	c.detections, c.falsePositives, c.meanTTD = det.Detections, det.FalsePositives, det.MeanTTD()
	c.captureEvents, c.captureBytes = sum.Events, capture.Len()
	c.incidents, c.overwrites = len(fr.Incidents()), fr.Overwrites()

	switch bs, _ := src.(*pipeline.BinarySource); {
	case c.onsets == 0:
		return c, fmt.Errorf("the unprotected CBD scenario never deadlocked")
	case c.detections == 0:
		return c, fmt.Errorf("the detector never fired on %d deadlock onsets", c.onsets)
	case c.recoveries == 0 || c.detections-c.falsePositives < c.recoveries:
		// A detection the global scan confirms precedes every recovery.
		// (With MitigateDrop the tag's second return, after the sweep
		// already broke the cycle, counts as a false positive, so that
		// counter is not zero on this arm.)
		return c, fmt.Errorf("%d recoveries from %d detections of which %d unconfirmed",
			c.recoveries, c.detections, c.falsePositives)
	case wd.LosslessDrops != 0:
		return c, fmt.Errorf("%d lossless packets dropped", wd.LosslessDrops)
	case !namedCycle:
		return c, fmt.Errorf("no post-mortem of %d incidents names a wait-for cycle", c.incidents)
	case bt.Dropped() != 0:
		return c, fmt.Errorf("capture ring dropped %d events", bt.Dropped())
	case bs == nil || bs.Truncated() || src.Skipped() != 0:
		return c, fmt.Errorf("capture read back damaged (truncated or %d records skipped)", src.Skipped())
	case fr.SinkErr() != nil:
		return c, fmt.Errorf("flight recorder sink: %w", fr.SinkErr())
	}
	return c, nil
}

// gate measures the capture cost with a synthetic burst (the checks
// themselves run on every op).
func (w *forensics) gate(rec *recorder, m metricSet) error {
	if rec == nil {
		return nil
	}
	ns, err := captureProbe(w.sz.captureEvents)
	if err != nil {
		return err
	}
	m["trace.capture_ns"] = ns
	return nil
}

// captureProbe pushes n events of the simulator's hot-path mix (PFC
// transitions with depths plus a drop, names already interned) through
// a BinaryTracer and returns the cost per event in nanoseconds on the
// producing goroutine, as BenchmarkTraceCapture measures it.
func captureProbe(n int) (float64, error) {
	events := []sim.TraceEvent{
		{T: 1, Kind: "pause", Node: "T1", Peer: "L1", Prio: 1, Depth: 9216},
		{T: 2, Kind: "resume", Node: "T1", Peer: "L1", Prio: 1, Depth: 512},
		{T: 3, Kind: "drop", Node: "T1", Flow: "f1", Reason: "ttl"},
	}
	bt, err := sim.NewBinaryTracer(io.Discard, trace.Config{RingSize: 1 << 18, FlushInterval: 200 * time.Microsecond})
	if err != nil {
		return 0, fmt.Errorf("starting the capture probe: %w", err)
	}
	for _, ev := range events {
		bt.Trace(ev)
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		bt.Trace(events[i%len(events)])
	}
	elapsed := time.Since(t0)
	if err := bt.Close(); err != nil {
		return 0, fmt.Errorf("closing the capture probe: %w", err)
	}
	return float64(elapsed) / float64(n), nil
}

// finish reports the exact counts as means over the first op on each
// scenario seed.
func (w *forensics) finish(m metricSet) error {
	n := float64(len(w.cycle))
	if n == 0 {
		return nil
	}
	var delivered float64
	for _, c := range w.cycle {
		delivered += float64(c.sim.delivered) / n
		m["sim.goodput_gbps"] += c.sim.goodputGbps / n
		m["sim.drops_total"] += float64(c.sim.drops) / n
		m["sim.pause_events"] += float64(c.sim.pauses) / n
		m["sim.watchdog_onsets"] += float64(c.onsets) / n
		m["sim.recoveries"] += float64(c.recoveries) / n
		m["detect.detections"] += float64(c.detections) / n
		m["detect.false_positives"] += float64(c.falsePositives) / n
		m["detect.mean_ttd_us"] += float64(c.meanTTD) / 1e3 / n
		m["trace.capture_events"] += float64(c.captureEvents) / n
		m["trace.capture_kb"] += float64(c.captureBytes) / 1024 / n
		m["trace.flight_incidents"] += float64(c.incidents) / n
		m["trace.flight_overwrites"] += float64(c.overwrites) / n
	}
	simRates(m, delivered, w.horizon)
	if ms := m["pipeline.summary_ms"]; ms > 0 {
		m["pipeline.events_per_s"] = m["trace.capture_events"] / (ms / 1e3)
	}
	return nil
}
