package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/topology"
)

// testSizes is the stand-in that lets every workload run both ways in a
// few seconds: Jellyfish-50, a k=4 fat-tree, a 2-pod Clos, 5 ms of
// simulated time. It is deliberately not reachable from a flag.
var testSizes = sizes{
	jellyfishSwitches: 50, jellyfishPorts: 12,
	fatTreeK:       4,
	churn:          topology.ClosConfig{Pods: 2, ToRsPerPod: 2, LeafsPerPod: 2, Spines: 2, HostsPerToR: 1},
	churnPrefix:    8,
	reconcileEvery: 4,
	simHorizon:     5 * time.Millisecond,
	forensicsSeeds: 2,
	captureEvents:  10_000,
	frameSamples:   16,
	setupReps:      2,
	warmups:        1,
}

// benchmarkJSON mirrors the repository-root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesSpecs keeps BENCHMARK.json and the tables in
// metrics.go and workloads.go in step, and within the contract's limits.
func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	b := loadBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}

	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program has %d", len(b.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, e := range b.EndToEnd {
		name(e.Name)
		s := endToEnd[i]
		if e.Name != s.Name || e.Unit != s.Unit || e.Better != s.Better || e.Bound != s.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, e, s)
		}
		if !unitRE.MatchString(e.Unit) || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: unit %q or bound %v outside the contract", e.Name, e.Unit, e.Bound)
		}
		hasSetup = hasSetup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program has %d (limit 128)", len(b.PerLayer), len(perLayer))
	}
	for i, l := range b.PerLayer {
		name(l.Name)
		s := perLayer[i]
		if l.Name != s.Name || l.Unit != s.Unit || l.Better != s.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, l, s)
		}
		if !unitRE.MatchString(l.Unit) || (l.Better != "lower" && l.Better != "higher") {
			t.Errorf("per-layer metric %s: unit %q or direction %q outside the contract", l.Name, l.Unit, l.Better)
		}
	}
	if b.RunSeconds < 10 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 10..60", b.RunSeconds)
	}
}

// TestEveryWorkloadEmitsTheDeclaredMetrics runs every workload both
// ways at test size and requires a correct run whose result line holds
// exactly the declared names, each once, each with its unit; and every
// end-to-end value above zero.
func TestEveryWorkloadEmitsTheDeclaredMetrics(t *testing.T) {
	for _, def := range workloads {
		for _, traced := range []bool{false, true} {
			specs, label := endToEnd, def.name+"/end_to_end"
			if traced {
				specs, label = perLayer, def.name+"/per_layer"
			}
			t.Run(label, func(t *testing.T) {
				dir := t.TempDir()
				res, err := runWorkload(def, runConfig{seed: 7, seconds: 0.05, trace: traced, sz: testSizes, spanDir: dir}, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				// Through JSON, as the driver reads it: a name emitted twice
				// would be a duplicate key there.
				line, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				var decoded struct {
					Metrics map[string]metricValue `json:"metrics"`
				}
				if err := json.Unmarshal(line, &decoded); err != nil {
					t.Fatal(err)
				}
				if len(decoded.Metrics) != len(specs) {
					t.Errorf("%d metrics emitted, %d declared", len(decoded.Metrics), len(specs))
				}
				for _, s := range specs {
					got, ok := decoded.Metrics[s.Name]
					switch {
					case !ok:
						t.Errorf("declared metric %s not emitted", s.Name)
					case got.Unit != s.Unit:
						t.Errorf("%s emitted in %q, declared in %q", s.Name, got.Unit, s.Unit)
					case !traced && !(got.Value > 0):
						t.Errorf("end-to-end metric %s = %v, must be above zero", s.Name, got.Value)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("%s = %v", s.Name, got.Value)
					}
				}
				if traced {
					if _, err := os.Stat(filepath.Join(dir, "trace_"+def.name+".json")); err != nil {
						t.Errorf("span file: %v", err)
					}
					if cov := decoded.Metrics["bench.span_coverage_pct"].Value; cov < minSpanCoverage {
						t.Errorf("span coverage %.1f%%", cov)
					}
				}
			})
		}
	}
}

// flaky fails every second op, slowly; its successes are fast.
type flaky struct{ calls int }

func (f *flaky) gate(*recorder, metricSet) error { return nil }
func (f *flaky) minOps() int                     { return 6 }
func (f *flaky) finish(metricSet) error          { return nil }
func (f *flaky) op(*recorder) error {
	f.calls++
	if f.calls%2 == 0 {
		time.Sleep(30 * time.Millisecond)
		return errors.New("injected failure")
	}
	time.Sleep(time.Millisecond)
	return nil
}

func TestFailedOpIsCountedAndExcludedFromLatency(t *testing.T) {
	f := &flaky{}
	def := workloadDef{name: "flaky", setup: func(int64, sizes, *recorder) (instance, error) { return f, nil }}
	sz := testSizes
	sz.setupReps, sz.warmups = 1, 0
	res, err := runWorkload(def, runConfig{seed: 1, seconds: 0.01, sz: sz}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Error("a run with failed ops reported correct")
	}
	if want := f.calls / 2; res.Failed != want {
		t.Errorf("failed = %d, want %d of %d ops", res.Failed, want, f.calls)
	}
	if want := f.calls + 2; res.Attempted != want { // ops + gate + end-of-run check
		t.Errorf("attempted = %d, want %d", res.Attempted, want)
	}
	if got := res.Metrics["op_ms"].Value; got <= 0 || got > 15 {
		t.Errorf("op_ms = %.2f: the 30 ms failed ops leaked into the latency samples", got)
	}
}

func TestTailHonoursTheSamplesBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n     int
		level float64
	}{
		{5, 50}, {19, 50}, {20, 50}, {40, 75}, {100, 90}, {150, 100 * (1 - 10.0/150)}, {200, 95}, {5000, 95},
	} {
		samples := make([]float64, c.n)
		for i := range samples {
			samples[i] = float64(i)
		}
		v, level, beyond := tail(samples)
		if math.Abs(level-c.level) > 1e-9 {
			t.Errorf("n=%d: reported p%.2f, want p%.2f", c.n, level, c.level)
		}
		if level > 50 && beyond < minBeyond {
			t.Errorf("n=%d: p%.2f has only %d samples beyond it", c.n, level, beyond)
		}
		if want := percentile(samples, level); v != want {
			t.Errorf("n=%d: value %.2f is not the p%.2f (%.2f)", c.n, v, level, want)
		}
	}
	if v, _, _ := tail(nil); v != 0 {
		t.Errorf("tail of no samples = %v", v)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	s := []float64{40, 10, 30, 20}
	for p, want := range map[float64]float64{0: 10, 50: 25, 100: 40, 25: 17.5} {
		if got := percentile(s, p); math.Abs(got-want) > 1e-9 {
			t.Errorf("p%.0f = %v, want %v", p, got, want)
		}
	}
	if s[0] != 40 {
		t.Error("percentile reordered its input")
	}
}

func TestSpanSelfTimeAndCoverage(t *testing.T) {
	r := newRecorder()
	err := r.op("op", func() error {
		r.span("layer.a", func() {
			time.Sleep(2 * time.Millisecond)
			r.span("layer.b", func() { time.Sleep(4 * time.Millisecond) })
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := r.stats()
	a, b := st["layer.a"], st["layer.b"]
	if a == nil || b == nil || st["op"] == nil {
		t.Fatalf("missing spans: %v", st)
	}
	if math.Abs(a.SelfMs-(a.TotalMs-b.TotalMs)) > 1e-6 {
		t.Errorf("layer.a self %.3f ms, want total %.3f − child %.3f", a.SelfMs, a.TotalMs, b.TotalMs)
	}
	if b.SelfMs != b.TotalMs {
		t.Errorf("leaf span self %.3f ≠ total %.3f", b.SelfMs, b.TotalMs)
	}
	if r.spans[2].Parent != r.spans[1].ID || r.spans[1].Parent != r.spans[0].ID || r.spans[0].Parent != -1 {
		t.Errorf("parent chain wrong: %+v", r.spans)
	}
	if r.spans[0].Op != r.spans[2].Op {
		t.Error("spans of one operation do not share its id")
	}
	if cov := r.coverage("op"); cov < 95 || cov > 100 {
		t.Errorf("coverage %.1f%%, want ≈100: layer.a fills the op", cov)
	}
	var nilRec *recorder
	ran := false
	nilRec.span("x", func() { ran = true })
	if !ran || nilRec.coverage("op") != 0 || len(nilRec.stats()) != 0 {
		t.Error("a nil recorder must run the function and record nothing")
	}
}
