package main

import (
	"slices"
	"strings"
	"testing"
)

func TestParseWorkloads(t *testing.T) {
	_, declared, err := readDeclaration("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(declared, "sim_fig12_tagger") || !slices.Contains(declared, "coldstart_fattree8") {
		t.Fatalf("declared workloads = %v", declared)
	}
	for list, want := range map[string][]string{
		"sim_fig12_tagger":                    {"sim_fig12_tagger"},
		"sim_fig12_tagger,sim_cbd_forensics":  {"sim_fig12_tagger", "sim_cbd_forensics"},
		"churn_clos4x8, coldstart_fattree8":   {"churn_clos4x8", "coldstart_fattree8"}, // order kept, spaces dropped
		strings.Join(declared, ","):           declared,
		"sim_fig12_tagger,,sim_cbd_forensics": nil, // empty entry
		"sim_fig12_tagger,":                   nil,
		"sim_fig12_tagger,sim_fig12":          nil, // not declared
		"sim_fig12_tagger,sim_fig12_tagger":   nil, // twice
		"sim_fig12_tagger sim_cbd_forensics":  nil, // wrong separator
		"":                                    nil,
	} {
		got, err := parseWorkloads(list, declared)
		if (err == nil) != (want != nil) || !slices.Equal(got, want) {
			t.Errorf("parseWorkloads(%q) = %v, %v; want %v", list, got, err, want)
		}
	}
}

// TestPrintVerdictsPerWorkload: each workload's table is computed from its
// own results alone — a row per declared metric and both failed shares.
func TestPrintVerdictsPerWorkload(t *testing.T) {
	metrics, _, err := readDeclaration("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(opMs float64, failed int) runResult {
		var r runResult
		r.Correct, r.Attempted, r.Failed = failed == 0, 40, failed
		r.Metrics = map[string]struct {
			Value float64 `json:"value"`
		}{"op_ms": {opMs}, "op_tail_ms": {2 * opMs}, "setup_s": {1}, "alloc_mb_per_op": {3}}
		return r
	}
	var faster, same [2][]runResult
	for i := 0; i < 10; i++ {
		noise := float64(i%3) - 1
		faster[0], faster[1] = append(faster[0], mk(250+noise, 0)), append(faster[1], mk(200+noise, 0))
		same[0], same[1] = append(same[0], mk(300+noise, 0)), append(same[1], mk(300+noise, i/9))
	}
	for name, tc := range map[string]struct {
		results [2][]runResult
		opRow   string
		change  string
	}{
		"claimed":       {faster, "gain", "change failed share 0/400 operations, 0/10 runs judged incorrect"},
		"no-regression": {same, "inside the base's quartiles", "change failed share 1/400 operations, 1/10 runs judged incorrect"},
	} {
		var out strings.Builder
		printVerdicts(&out, metrics, tc.results)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if want := 2 + len(metrics) + 2; len(lines) != want {
			t.Fatalf("%s: %d lines, want %d:\n%s", name, len(lines), want, out.String())
		}
		var opLine string
		for _, l := range lines {
			if strings.HasPrefix(l, "op_ms (ms)") {
				opLine = l
			}
		}
		if !strings.HasSuffix(opLine, tc.opRow) || !strings.Contains(opLine, "/10") {
			t.Errorf("%s: op_ms row %q, want verdict %q over 10 pairs", name, opLine, tc.opRow)
		}
		if lines[len(lines)-1] != tc.change {
			t.Errorf("%s: last line %q, want %q", name, lines[len(lines)-1], tc.change)
		}
	}
}

func TestPairOrderAlternates(t *testing.T) {
	if pairOrder(1) != [2]int{0, 1} || pairOrder(2) != [2]int{1, 0} || pairOrder(3) != [2]int{0, 1} {
		t.Fatalf("order: %v %v %v", pairOrder(1), pairOrder(2), pairOrder(3))
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{4, 1, 3, 2, 5}
	for q, want := range map[float64]float64{0: 1, 0.25: 2, 0.5: 3, 0.75: 4, 1: 5, 0.125: 1.5} {
		if got := quantile(s, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("empty sample")
	}
}

func TestSummarizeVerdicts(t *testing.T) {
	lower := metricDef{Name: "op_ms", Unit: "ms", Better: "lower", Bound: 0.25}
	base := []float64{100, 102, 98, 101, 99, 100, 103, 97, 100, 101}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		m      metricDef
		change []float64
		wins   int
		want   string
	}{
		{"clear gain", lower, shift(0.8), 10, "gain"},
		{"noise", lower, shift(1.005), 0, "inside the base's quartiles"},
		{"regression past the bound", lower, shift(1.3), 0, "WORSE"},
		{"worse but bounded", lower, shift(1.1), 0, "within the 25% bound"},
		{"higher is better", metricDef{Name: "ops", Better: "higher", Bound: 0.25}, shift(1.2), 10, "gain"},
		{"higher is better, fell", metricDef{Name: "ops", Better: "higher", Bound: 0.25}, shift(0.7), 0, "WORSE"},
	} {
		s := summarize(tc.m, base, tc.change)
		if s.wins != tc.wins || !strings.HasPrefix(s.verdict, tc.want) {
			t.Errorf("%s: wins %d verdict %q, want %d %q...", tc.name, s.wins, s.verdict, tc.wins, tc.want)
		}
	}
	// Nine wins of ten is a gain; eight is not, however far the medians.
	change := shift(0.5)
	change[0] = 200
	if s := summarize(lower, base, change); s.wins != 9 || !strings.HasPrefix(s.verdict, "gain") {
		t.Errorf("9/10: wins %d verdict %q", s.wins, s.verdict)
	}
	change[1] = 200
	if s := summarize(lower, base, change); s.wins != 8 || strings.HasPrefix(s.verdict, "gain") {
		t.Errorf("8/10: wins %d verdict %q", s.wins, s.verdict)
	}
}
