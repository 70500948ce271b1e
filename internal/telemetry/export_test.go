package telemetry

import (
	"strings"
	"testing"
)

// buildSample is the fixture for both exporter golden tests: legacy
// dotted counter names, labels needing escaping, a histogram, a gauge.
func buildSample() Snapshot {
	r := NewRegistry()
	r.Counter("deploy.install.fail").Add(3)
	r.Counter("deploy.install.ok", "switch", "L1-T1").Add(7)
	r.Counter("deploy.install.ok", "switch", `we"ird\name`).Add(1)
	r.Gauge("sim_queue_depth_bytes", "node", "L2").Set(4096)
	// Binary-exact observations keep the goldens free of float fuzz.
	h := r.Histogram("sim_pause_duration_seconds", []float64{0.25, 1, 4},
		"link", "L1->T1")
	h.Observe(0.125)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(8)
	return r.Snapshot()
}

// TestPrometheusGolden pins the full exposition byte-for-byte: family
// ordering, name sanitization, label escaping, cumulative histogram
// buckets, sum/count lines.
func TestPrometheusGolden(t *testing.T) {
	var b strings.Builder
	if err := WritePrometheus(&b, buildSample()); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE deploy_install_fail counter
deploy_install_fail 3
# TYPE deploy_install_ok counter
deploy_install_ok{switch="L1-T1"} 7
deploy_install_ok{switch="we\"ird\\name"} 1
# TYPE sim_pause_duration_seconds histogram
sim_pause_duration_seconds_bucket{link="L1->T1",le="0.25"} 1
sim_pause_duration_seconds_bucket{link="L1->T1",le="1"} 3
sim_pause_duration_seconds_bucket{link="L1->T1",le="4"} 3
sim_pause_duration_seconds_bucket{link="L1->T1",le="+Inf"} 4
sim_pause_duration_seconds_sum{link="L1->T1"} 9.125
sim_pause_duration_seconds_count{link="L1->T1"} 4
# TYPE sim_queue_depth_bytes gauge
sim_queue_depth_bytes{node="L2"} 4096
`
	if got := b.String(); got != want {
		t.Fatalf("prometheus exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestPrometheusDeterministic: two identical registries must render the
// same bytes (map iteration must not leak into the output).
func TestPrometheusDeterministic(t *testing.T) {
	render := func() string {
		var b strings.Builder
		if err := WritePrometheus(&b, buildSample()); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	first := render()
	for i := 0; i < 10; i++ {
		if render() != first {
			t.Fatal("exposition output is nondeterministic")
		}
	}
}

func TestSanitizeName(t *testing.T) {
	for in, want := range map[string]string{
		"deploy.install.fail": "deploy_install_fail",
		"already_fine:x":      "already_fine:x",
		"9starts-digit":       "_9starts_digit",
		"sim pause µs":        "sim_pause__s",
	} {
		if got := SanitizeName(in); got != want {
			t.Errorf("SanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestWritePrometheusTypeConflict: one exposed name registered as two
// different metric types must error, not emit an invalid exposition.
func TestWritePrometheusTypeConflict(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup.metric").Inc()
	r.Gauge("dup_metric").Set(1) // sanitizes to the same family name
	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot()); err == nil {
		t.Fatal("want an error for a name exported as both counter and gauge")
	}
}
