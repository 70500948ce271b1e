package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	seed    int64
	seconds float64
	// trace selects the traced run (per-layer metrics) over the untraced
	// one (end-to-end metrics).
	trace bool
	sz    sizes
	// spanDir, when set, receives trace_<workload>.json after a traced
	// run.
	spanDir string
}

// result is the line a run prints last on standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// minSpanCoverage is the share of a staged op its child spans must
// account for; below it the per-layer numbers do not explain the op and
// the traced run fails.
const minSpanCoverage = 90

// loopStats is what one closed loop of ops measured.
type loopStats struct {
	latMs     []float64 // one sample per successful op
	attempted int
	failed    int
}

// loop runs ops back to back until limit has passed and at least minOps
// have run. With staged set it follows each op with the workload's
// staged decomposition. Failures are logged (the first few) and counted.
func loop(w instance, rec *recorder, limit time.Duration, minOps int, staged bool, log io.Writer) loopStats {
	var st loopStats
	fail := func(what string, err error) {
		st.failed++
		if st.failed <= 5 {
			fmt.Fprintf(log, "FAILED %s %d: %v\n", what, st.attempted, err)
		}
	}
	between, _ := w.(housekeeper)
	stager, _ := w.(stager)
	start := time.Now()
	for ops := 0; time.Since(start) < limit || ops < minOps; ops++ {
		st.attempted++
		t0 := time.Now()
		err := rec.op("op", func() error { return w.op(rec) })
		d := time.Since(t0)
		if err != nil {
			fail("op", err)
		} else {
			st.latMs = append(st.latMs, float64(d)/1e6)
		}
		if between != nil {
			if err := between.afterOp(rec); err != nil {
				st.attempted++
				fail("reconcile after op", err)
			}
		}
		if staged && stager != nil {
			if err := rec.op("staged", func() error { return stager.staged(rec) }); err != nil {
				st.attempted++
				fail("staged op", err)
			}
		}
	}
	return st
}

// runWorkload performs one run: set-up (repeated, to report its median),
// the correctness gate, the timed closed loop, the end-of-run checks.
// Human-readable progress goes to log. An error means the run could not
// measure anything; failed ops and failed checks are in the result.
func runWorkload(def workloadDef, cfg runConfig, log io.Writer) (result, error) {
	var rec *recorder
	reps := cfg.sz.setupReps
	if cfg.trace {
		rec = newRecorder()
		reps = 1
	}
	m := metricSet{}
	res := result{}
	check := func(what string, err error) {
		res.Attempted++
		if err != nil {
			res.Failed++
			fmt.Fprintf(log, "FAILED %s: %v\n", what, err)
		}
	}

	var w instance
	var setupS []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		err := rec.op("setup", func() error {
			var err error
			if w, err = def.setup(cfg.seed, cfg.sz, rec); err != nil {
				return err
			}
			for j := 0; j < cfg.sz.warmups; j++ {
				if err := w.op(nil); err != nil {
					return fmt.Errorf("warm-up op %d: %w", j, err)
				}
			}
			return nil
		})
		if err != nil {
			return res, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	check("correctness gate", rec.op("gate", func() error { return w.gate(rec, m) }))

	limit := time.Duration(cfg.seconds * float64(time.Second))
	var reference loopStats
	if cfg.trace {
		// A quarter of the traced run measures the same ops with the
		// recorder off, in the same process: the difference is the cost
		// of tracing.
		reference = loop(w, nil, limit/4, 3, false, log)
		limit -= limit / 4
	}
	// Start the measured loop from a collected heap, so that what set-up
	// and the gate left behind is not charged to the first ops.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	timed := loop(w, rec, limit, w.minOps(), cfg.trace, log)
	runtime.ReadMemStats(&ms1)
	res.Attempted += reference.attempted + timed.attempted
	res.Failed += reference.failed + timed.failed

	stats := rec.stats()
	m.fillFromSpans(stats)
	check("end-of-run checks", w.finish(m))

	tailMs, level, beyond := tail(timed.latMs)
	fmt.Fprintf(log, "%s seed=%d trace=%v: %d ops in %.1fs, %d failed; op mean %.3f ms, median %.3f ms, p%.1f %.3f ms (n=%d, %d beyond)\n",
		def.name, cfg.seed, cfg.trace, len(timed.latMs), limit.Seconds(), res.Failed,
		mean(timed.latMs), median(timed.latMs), level, tailMs, len(timed.latMs), beyond)

	if !cfg.trace {
		m["setup_s"] = median(setupS)
		m["op_ms"] = mean(timed.latMs)
		m["op_tail_ms"] = tailMs
		if timed.attempted > 0 {
			m["alloc_mb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / float64(timed.attempted)
		}
		res.Metrics = m.emit(endToEnd)
	} else {
		m["bench.ops"] = float64(len(timed.latMs))
		if ref := mean(reference.latMs); ref > 0 {
			m["bench.trace_overhead_pct"] = 100 * (mean(timed.latMs)/ref - 1)
		}
		cov := rec.coverage("op", "staged")
		m["bench.span_coverage_pct"] = cov
		if cov < minSpanCoverage {
			check("span coverage", fmt.Errorf("child spans cover %.1f%% of the ops, want ≥ %d%%", cov, minSpanCoverage))
		}
		m["proc.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
			m["proc.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
		res.Metrics = m.emit(perLayer)
		if cfg.spanDir != "" {
			if err := writeSpans(cfg.spanDir, def.name, newContext(cfg.seed, cfg.seconds), rec, stats); err != nil {
				return res, err
			}
		}
	}
	res.Correct = res.Failed == 0 && len(timed.latMs) > 0
	return res, nil
}

// spanFile is the layout of trace_<workload>.json.
type spanFile struct {
	Workload string      `json:"workload"`
	Context  runContext  `json:"context"`
	Layers   []*spanStat `json:"layers"`
	Spans    []span      `json:"spans"`
}

func writeSpans(dir, workload string, ctx runContext, rec *recorder, stats map[string]*spanStat) error {
	f := spanFile{Workload: workload, Context: ctx, Spans: rec.spans}
	for _, st := range stats {
		f.Layers = append(f.Layers, st)
	}
	sort.Slice(f.Layers, func(i, j int) bool { return f.Layers[i].SelfMs > f.Layers[j].SelfMs })
	return writeJSON(filepath.Join(dir, "trace_"+workload+".json"), f)
}

// writeJSON writes v to path, creating the directory if needed.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
