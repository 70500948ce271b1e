package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// metricSpec declares one reported number. The two tables below are the
// only place a metric name is introduced; BENCHMARK.json repeats them and
// TestBenchmarkJSONMatchesSpecs keeps the two in step.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before it counts as a regression. Per-layer
	// metrics have none.
	Bound float64
	// Exact marks a number that repeats bit for bit for a fixed seed
	// (a count taken over a fixed prefix of operations, or a simulated
	// statistic). -repeat demands equality on these instead of a spread.
	Exact bool
}

// endToEnd is measured with tracing off, on every workload.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer is measured in the traced run. A workload reports 0 for a
// layer it does not execute. A name ending in _ms, _us or _ns whose stem
// is a span name is filled from the spans (median over operations of the
// span's summed time in one operation); everything else is set by the
// workload.
var perLayer = []metricSpec{
	{Name: "topology.build_ms", Unit: "ms", Better: "lower"},
	{Name: "routing.tables_ms", Unit: "ms", Better: "lower"},
	{Name: "elp.enumerate_ms", Unit: "ms", Better: "lower"},
	{Name: "elp.paths", Unit: "count", Better: "lower", Exact: true},
	{Name: "elp.tracker_ms", Unit: "ms", Better: "lower"},
	{Name: "core.alg1_ms", Unit: "ms", Better: "lower"},
	{Name: "core.alg2_ms", Unit: "ms", Better: "lower"},
	{Name: "core.rules_ms", Unit: "ms", Better: "lower"},
	{Name: "core.runtime_ms", Unit: "ms", Better: "lower"},
	{Name: "core.verify_ms", Unit: "ms", Better: "lower"},
	{Name: "core.synthesize_ms", Unit: "ms", Better: "lower"},
	{Name: "core.alg1_tags", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.alg2_tags", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.rules_total", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.lossless_queues", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.resynth_apply_ms", Unit: "ms", Better: "lower"},
	{Name: "core.resynth_paths_per_event", Unit: "count", Better: "lower", Exact: true},
	{Name: "fingerprint.canonicalize_ms", Unit: "ms", Better: "lower"},
	{Name: "fingerprint.pod_decompose_ms", Unit: "ms", Better: "lower"},
	{Name: "synthcache.cold_ms", Unit: "ms", Better: "lower"},
	{Name: "synthcache.warm_hit_us", Unit: "us", Better: "lower"},
	{Name: "synthcache.hit_ratio", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "synthcache.closkbounce_ms", Unit: "ms", Better: "lower"},
	{Name: "synthcache.pod_stamped", Unit: "count", Better: "higher", Exact: true},
	{Name: "tcam.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "tcam.entries_total", Unit: "count", Better: "lower", Exact: true},
	{Name: "tcam.entries_per_rule", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "tcam.max_entries", Unit: "count", Better: "lower", Exact: true},
	{Name: "deploy.export_ms", Unit: "ms", Better: "lower"},
	{Name: "deploy.marshal_ms", Unit: "ms", Better: "lower"},
	{Name: "deploy.import_ms", Unit: "ms", Better: "lower"},
	{Name: "deploy.bundle_kb", Unit: "KB", Better: "lower", Exact: true},
	{Name: "deploy.groups", Unit: "count", Better: "lower", Exact: true},
	{Name: "deploy.rules_moved_per_event", Unit: "count", Better: "lower", Exact: true},
	{Name: "deploy.switches_touched_per_event", Unit: "count", Better: "lower", Exact: true},
	{Name: "controller.deploy_ms", Unit: "ms", Better: "lower"},
	{Name: "controller.rpcs_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "controller.rpc_retries", Unit: "count", Better: "lower", Exact: true},
	{Name: "controller.audit_entries", Unit: "count", Better: "lower", Exact: true},
	{Name: "controller.handle_ms", Unit: "ms", Better: "lower"},
	{Name: "controller.reconcile_ms", Unit: "ms", Better: "lower"},
	{Name: "controller.reconcile_fixed", Unit: "count", Better: "lower", Exact: true},
	{Name: "chaos.gen_churn_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.build_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.run_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.delivered_mpkts_per_s", Unit: "Mpkt/s", Better: "higher"},
	{Name: "sim.host_s_per_sim_ms", Unit: "s/ms", Better: "lower"},
	{Name: "sim.goodput_gbps", Unit: "Gb/s", Better: "higher", Exact: true},
	{Name: "sim.drops_total", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.pause_events", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.watchdog_onsets", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.recoveries", Unit: "count", Better: "higher", Exact: true},
	{Name: "detect.detections", Unit: "count", Better: "higher", Exact: true},
	{Name: "detect.false_positives", Unit: "count", Better: "lower", Exact: true},
	{Name: "detect.mean_ttd_us", Unit: "us", Better: "lower", Exact: true},
	{Name: "trace.capture_events", Unit: "count", Better: "lower", Exact: true},
	{Name: "trace.capture_kb", Unit: "KB", Better: "lower", Exact: true},
	{Name: "trace.dropped", Unit: "count", Better: "lower", Exact: true},
	{Name: "trace.close_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.flight_incidents", Unit: "count", Better: "lower", Exact: true},
	{Name: "trace.flight_overwrites", Unit: "count", Better: "lower", Exact: true},
	{Name: "trace.capture_ns", Unit: "ns", Better: "lower"},
	{Name: "pipeline.summary_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.postmortem_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "dataplane.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "dataplane.frame_ns", Unit: "ns", Better: "lower"},
	{Name: "check.oracle_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.ops", Unit: "count", Better: "higher"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.span_coverage_pct", Unit: "%", Better: "higher"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
}

// metricSet holds the values of one run, by metric name.
type metricSet map[string]float64

// fillFromSpans sets every per-layer timing whose stem names a span.
func (m metricSet) fillFromSpans(stats map[string]*spanStat) {
	scale := map[string]float64{"_ms": 1, "_us": 1e3, "_ns": 1e6}
	for _, spec := range perLayer {
		for suffix, k := range scale {
			stem, ok := strings.CutSuffix(spec.Name, suffix)
			if !ok {
				continue
			}
			if st := stats[stem]; st != nil {
				m[spec.Name] = st.MedianMs * k
			}
		}
	}
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit renders m against specs: every spec appears once, at 0 if the
// run did not set it.
func (m metricSet) emit(specs []metricSpec) map[string]metricValue {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		out[s.Name] = metricValue{Value: m[s.Name], Unit: s.Unit}
	}
	return out
}

// runContext says where and how a result was measured. It is written
// into every output file: a timing means nothing without its machine.
type runContext struct {
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	TracedSecs float64 `json:"traced_seconds,omitempty"`
}

func newContext(seed int64, seconds float64) runContext {
	return runContext{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		Seed:       seed,
		Seconds:    seconds,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// gitCommit asks git for HEAD; a checkout that is not a repository (or
// has no git) reports "unknown".
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
