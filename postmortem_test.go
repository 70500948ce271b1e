package tagger

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestPostmortemStoreEndToEnd drives the whole forensics chain the way
// a soak harness would: a detect-arm run with the flight recorder
// sinking into a PostmortemStore, served at /debug/postmortem.
func TestPostmortemStoreEndToEnd(t *testing.T) {
	store := &PostmortemStore{}
	res, err := DetectRun(1, ArmDetect, RunOptions{FlightRec: &FlightRecConfig{Sink: store.Sink()}})
	if err != nil {
		t.Fatalf("DetectRun: %v", err)
	}
	if len(res.Capture.Incidents) == 0 {
		t.Fatal("detect arm captured no incidents; the CBD workload should deadlock")
	}
	if store.Len() != len(res.Capture.Incidents) {
		t.Fatalf("store holds %d episodes, run captured %d incidents", store.Len(), len(res.Capture.Incidents))
	}

	eps := store.PostmortemEpisodes()
	first := eps[0]
	if first.Trigger != string(sim.TriggerDeadlockOnset) {
		t.Fatalf("first episode trigger = %q, want %q", first.Trigger, sim.TriggerDeadlockOnset)
	}
	for _, want := range []string{"POST-MORTEM:", "wait-for cycle", "flow "} {
		if !strings.Contains(first.Report, want) {
			t.Errorf("report missing %q:\n%s", want, first.Report)
		}
	}

	// The library report matches what PostmortemReport renders from the
	// raw capture bytes.
	direct, err := PostmortemReport(res.Capture.Incidents[0].Data)
	if err != nil {
		t.Fatalf("PostmortemReport: %v", err)
	}
	if direct != first.Report {
		t.Error("stored report differs from direct render of the same capture")
	}

	// Served over the ops endpoint.
	srv := httptest.NewServer(telemetry.HandlerWithPostmortem(store))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/postmortem")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var idx struct {
		Count    int `json:"count"`
		Episodes []struct {
			Seq       int    `json:"seq"`
			Trigger   string `json:"trigger"`
			ReportURL string `json:"report_url"`
		} `json:"episodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&idx); err != nil {
		t.Fatalf("decode index: %v", err)
	}
	if idx.Count != store.Len() || len(idx.Episodes) != store.Len() {
		t.Fatalf("index count = %d (%d rows), want %d", idx.Count, len(idx.Episodes), store.Len())
	}
	rep, err := http.Get(srv.URL + idx.Episodes[0].ReportURL)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Body.Close()
	body, _ := io.ReadAll(rep.Body)
	if string(body) != first.Report {
		t.Error("served report differs from stored report")
	}
}
