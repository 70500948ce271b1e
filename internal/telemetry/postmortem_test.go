package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// staticPM is a canned PostmortemSource.
type staticPM []PostmortemEpisode

func (s staticPM) PostmortemEpisodes() []PostmortemEpisode { return s }

func TestPostmortemEndpoints(t *testing.T) {
	pm := staticPM{
		{Seq: 1, Trigger: "deadlock-onset", Node: "L1", At: 5 * time.Millisecond,
			Report: "POST-MORTEM: deadlock-onset at L1\nwait-for cycle (2 hops):\n"},
		{Seq: 2, Trigger: "detector-fire", Node: "T3", At: 7 * time.Millisecond,
			Report: "POST-MORTEM: detector-fire at T3\n"},
	}
	srv := httptest.NewServer(HandlerWithPostmortem(pm, NewRegistry()))
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

	code, body := get("/debug/postmortem")
	if code != http.StatusOK {
		t.Fatalf("/debug/postmortem status %d", code)
	}
	var idx struct {
		Count    int `json:"count"`
		Episodes []struct {
			Seq     int    `json:"seq"`
			Trigger string `json:"trigger"`
			Node    string `json:"node"`
			At      string `json:"at"`
			URL     string `json:"report_url"`
		} `json:"episodes"`
	}
	if err := json.Unmarshal([]byte(body), &idx); err != nil {
		t.Fatalf("index not JSON: %v (%s)", err, body)
	}
	if idx.Count != 2 || len(idx.Episodes) != 2 {
		t.Fatalf("index count = %d/%d, want 2", idx.Count, len(idx.Episodes))
	}
	ep := idx.Episodes[0]
	if ep.Seq != 1 || ep.Trigger != "deadlock-onset" || ep.Node != "L1" ||
		ep.At != "5ms" || ep.URL != "/debug/postmortem/1" {
		t.Fatalf("episode row = %+v", ep)
	}
	if strings.Contains(body, "wait-for cycle") {
		t.Fatal("index must not inline full reports")
	}

	code, body = get("/debug/postmortem/2")
	if code != http.StatusOK || !strings.Contains(body, "detector-fire at T3") {
		t.Fatalf("report fetch: status %d body %q", code, body)
	}

	if code, _ = get("/debug/postmortem/9"); code != http.StatusNotFound {
		t.Fatalf("missing incident status %d, want 404", code)
	}
	if code, _ = get("/debug/postmortem/bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad seq status %d, want 400", code)
	}
}

// TestPostmortemNilSource: the routes exist (empty index, no panics)
// even when no recorder is wired in — the plain Handler path.
func TestPostmortemNilSource(t *testing.T) {
	srv := httptest.NewServer(HandlerWithPostmortem(nil, NewRegistry()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/postmortem")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var idx struct {
		Count int `json:"count"`
	}
	if err := json.Unmarshal(body, &idx); err != nil || idx.Count != 0 {
		t.Fatalf("empty index: err=%v count=%d (%s)", err, idx.Count, body)
	}
}
