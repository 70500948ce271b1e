package main

import (
	"strings"
	"testing"
)

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
