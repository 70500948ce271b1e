package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestOpsEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("deploy.pushes").Add(2)
	reg.Histogram("sim_pause_duration_seconds", []float64{0.001, 0.01}, "link", "L1->T1").
		Observe(0.002)
	other := NewRegistry()
	other.Counter("deploy.pushes").Add(3) // summed with reg's at scrape time

	srv := httptest.NewServer(HandlerWithPostmortem(nil, reg, other))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"# TYPE deploy_pushes counter",
		"deploy_pushes 5",
		`sim_pause_duration_seconds_bucket{link="L1->T1",le="+Inf"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}

	code, body = get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d", code)
	}
	var health map[string]any
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("/healthz not JSON: %v (%s)", err, body)
	}
	if health["status"] != "ok" {
		t.Fatalf("/healthz status field = %v", health["status"])
	}

	if code, _ = get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status %d", code)
	}
}

func TestStartOpsServesAndCloses(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x").Inc()
	srv, err := StartOps("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "x 1") {
		t.Fatalf("metrics body: %s", body)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + srv.Addr() + "/metrics"); err == nil {
		t.Fatal("server still reachable after Close")
	}
}
