package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	tagger "repro"
	"repro/internal/trace"
)

// -update regenerates the golden fixtures under testdata/: the fig10
// trace captured in both encodings plus the pinned report. Run it (via
// `make trace-golden UPDATE=1`) only after an intentional trace-format
// or report-layout change, and review the diff.
var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

const (
	goldenJSONL   = "testdata/fig10.jsonl"
	goldenBinary  = "testdata/fig10.bin"
	goldenReport  = "testdata/report.golden"
	goldenTGL     = "testdata/fig3cbd.tgl"
	goldenForensy = "testdata/postmortem.golden"
)

// regenerate captures the deterministic fig10 (no Tagger) run in both
// encodings and pins the report rendered from the JSONL capture.
func regenerate(t *testing.T) {
	t.Helper()
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		path, format string
	}{{goldenJSONL, tagger.TraceJSONL}, {goldenBinary, tagger.TraceBinary}} {
		if _, err := tagger.FigureWith("fig10", false, tagger.RunOptions{Trace: g.path, TraceFormat: g.format}); err != nil {
			t.Fatal(err)
		}
	}
	in, err := os.Open(goldenJSONL)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	var report bytes.Buffer
	if _, err := run(in, &report, "auto", "report", 10); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenReport, report.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("regenerated %s, %s, %s", goldenJSONL, goldenBinary, goldenReport)
}

func runFile(t *testing.T, path, format, output string) (string, int64) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out bytes.Buffer
	diag, err := run(f, &out, format, output, 10)
	if err != nil {
		t.Fatalf("run(%s, %s, %s): %v", path, format, output, err)
	}
	return out.String(), diag.Skipped
}

// TestGoldenReport pins the report output: the checked-in fig10
// captures — one JSONL, one binary, same deterministic run — must both
// render byte-identically to testdata/report.golden, whether the format
// is sniffed or named. A diff here means the report layout or the trace
// encoding changed; regenerate deliberately with -update.
func TestGoldenReport(t *testing.T) {
	if *update {
		regenerate(t)
	}
	want, err := os.ReadFile(goldenReport)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, path, format string
	}{
		{"jsonl-auto", goldenJSONL, "auto"},
		{"jsonl-named", goldenJSONL, "jsonl"},
		{"binary-auto", goldenBinary, "auto"},
		{"binary-named", goldenBinary, "binary"},
	} {
		got, skipped := runFile(t, c.path, c.format, "report")
		if skipped != 0 {
			t.Errorf("%s: %d entries skipped in a clean capture", c.name, skipped)
		}
		if got != string(want) {
			t.Errorf("%s: report diverges from %s\n--- got ---\n%s--- want ---\n%s",
				c.name, goldenReport, got, want)
		}
	}
	if !strings.Contains(string(want), "DEADLOCK onset") {
		t.Errorf("golden fig10 (no Tagger) report lost its deadlock:\n%s", want)
	}
}

// regeneratePostmortem captures a seeded flight-recorder incident — the
// detect arm's Fig 3 CBD deadlock onset — and pins the forensics report
// rendered from it.
func regeneratePostmortem(t *testing.T) {
	t.Helper()
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	res, err := tagger.DetectRun(1, tagger.ArmDetect, tagger.RunOptions{FlightRec: &tagger.FlightRecConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Capture.Incidents) == 0 {
		t.Fatal("seeded detect run captured no incidents")
	}
	inc := res.Capture.Incidents[0]
	if err := os.WriteFile(goldenTGL, inc.Data, 0o644); err != nil {
		t.Fatal(err)
	}
	var report bytes.Buffer
	if _, err := run(bytes.NewReader(inc.Data), &report, "binary", "postmortem", 10); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenForensy, report.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("regenerated %s, %s", goldenTGL, goldenForensy)
}

// TestGoldenPostmortem pins the forensics pipeline end to end: the
// checked-in incident capture (a seeded detect-arm deadlock onset) must
// render byte-identically to testdata/postmortem.golden, and the report
// must name the wait-for cycle, the culprit flows and the live detector
// tags. A diff means the snapshot encoding or the report layout changed;
// regenerate deliberately with `make postmortem-golden UPDATE=1`.
func TestGoldenPostmortem(t *testing.T) {
	if *update {
		regeneratePostmortem(t)
	}
	want, err := os.ReadFile(goldenForensy)
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"auto", "binary"} {
		got, skipped := runFile(t, goldenTGL, format, "postmortem")
		if skipped != 0 {
			t.Errorf("format %s: %d entries skipped in a clean capture", format, skipped)
		}
		if got != string(want) {
			t.Errorf("format %s: postmortem diverges from %s\n--- got ---\n%s--- want ---\n%s",
				format, goldenForensy, got, want)
		}
	}
	for _, must := range []string{"POST-MORTEM: deadlock-onset", "wait-for cycle", "flow ", "live detector tags"} {
		if !strings.Contains(string(want), must) {
			t.Errorf("golden postmortem report lost %q:\n%s", must, want)
		}
	}
}

// TestGoldenPostmortemFresh re-captures the same seeded incident live
// and checks it is byte-identical to the checked-in capture: the
// recorder's output is a pure function of (seed, arm), never of wall
// clock, host or scheduling.
func TestGoldenPostmortemFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates a full detect run")
	}
	want, err := os.ReadFile(goldenTGL)
	if err != nil {
		t.Skipf("golden incident missing (run with -update): %v", err)
	}
	res, err := tagger.DetectRun(1, tagger.ArmDetect, tagger.RunOptions{FlightRec: &tagger.FlightRecConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Capture.Incidents) == 0 {
		t.Fatal("seeded detect run captured no incidents")
	}
	if !bytes.Equal(res.Capture.Incidents[0].Data, want) {
		t.Errorf("fresh capture differs from %s (%d vs %d bytes): incident capture is not deterministic",
			goldenTGL, len(res.Capture.Incidents[0].Data), len(want))
	}
}

// TestGoldenJSONLExport pins the compatibility downgrade: `-o jsonl`
// over the binary capture must re-emit the legacy format byte-for-byte
// — exactly the file sim.JSONLTracer wrote for the same run.
func TestGoldenJSONLExport(t *testing.T) {
	if *update {
		regenerate(t)
	}
	want, err := os.ReadFile(goldenJSONL)
	if err != nil {
		t.Fatal(err)
	}
	got, skipped := runFile(t, goldenBinary, "auto", "jsonl")
	if skipped != 0 {
		t.Errorf("%d entries skipped in a clean capture", skipped)
	}
	if got != string(want) {
		t.Errorf("binary->jsonl export is not byte-identical to the JSONL capture\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRunRejectsBadFlags: unknown formats and outputs fail up front.
func TestRunRejectsBadFlags(t *testing.T) {
	if _, err := run(strings.NewReader(""), io.Discard, "xml", "report", 10); err == nil {
		t.Error("unknown format accepted")
	}
	if _, err := run(strings.NewReader(""), io.Discard, "auto", "csv", 10); err == nil {
		t.Error("unknown output accepted")
	}
}

// TestRunSurfacesCorruption: the CLI path reports the combined
// ingest+normalize loss for damaged input.
func TestRunSurfacesCorruption(t *testing.T) {
	in := strings.NewReader(strings.Join([]string{
		`{"t":1,"kind":"pause","node":"A","peer":"B","prio":1}`,
		`garbage`,
		`{"t":2,"kind":"comet","node":"A"}`, // decodes, normalize drops it
	}, "\n"))
	var out bytes.Buffer
	diag, err := run(in, &out, "auto", "report", 10)
	if err != nil {
		t.Fatal(err)
	}
	if diag.Skipped != 2 {
		t.Errorf("skipped = %d, want 2 (1 ingest + 1 normalize)", diag.Skipped)
	}
	if !strings.Contains(out.String(), "2 malformed lines skipped") {
		t.Errorf("report does not surface the loss:\n%s", out.String())
	}
}

// TestRunSurfacesTruncation: a binary capture cut mid-record must be
// analyzed to the torn point, flagged in Diag (so main can exit
// nonzero without -allow-truncated), and called out in the report
// footer.
func TestRunSurfacesTruncation(t *testing.T) {
	if _, err := os.Stat(goldenBinary); err != nil {
		t.Skipf("golden binary missing (run with -update): %v", err)
	}
	whole, err := os.ReadFile(goldenBinary)
	if err != nil {
		t.Fatal(err)
	}
	// Cut inside an entry: 7 bytes past an entry boundary near the end.
	cut := len(whole) - (len(whole)-trace.HeaderSize)%trace.EntrySize - trace.EntrySize + 7
	var out bytes.Buffer
	diag, err := run(bytes.NewReader(whole[:cut]), &out, "binary", "report", 10)
	if err != nil {
		t.Fatal(err)
	}
	if !diag.Truncated {
		t.Error("Diag.Truncated = false for a torn capture")
	}
	if diag.Skipped == 0 {
		t.Error("torn tail not counted as skipped")
	}
	if !strings.Contains(out.String(), "WARNING: trace ended mid-record") {
		t.Errorf("report footer missing the truncation warning:\n%s", out.String())
	}
	// The intact prefix must still be analyzed.
	if !strings.Contains(out.String(), "events over") {
		t.Errorf("torn capture produced no analysis:\n%s", out.String())
	}
}

// TestRunSurfacesAlienKinds: entries with a kind this reader does not
// speak (a newer producer) are skipped, tallied separately from
// damage, and noted in the report footer.
func TestRunSurfacesAlienKinds(t *testing.T) {
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Config{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := w.Intern("T1"), w.Intern("L1")
	w.Emit(trace.Entry{Tick: 100, Kind: trace.KindPause, Prio: 1, A: a, B: b})
	w.Emit(trace.Entry{Tick: 200, Kind: trace.Kind(200), A: a}) // from the future
	w.Emit(trace.Entry{Tick: 300, Kind: trace.KindResume, Prio: 1, A: a, B: b})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	diag, err := run(bytes.NewReader(buf.Bytes()), &out, "binary", "report", 10)
	if err != nil {
		t.Fatal(err)
	}
	if diag.Alien != 1 || diag.Skipped != 1 {
		t.Errorf("diag = %+v, want Alien=1 Skipped=1", diag)
	}
	if diag.Truncated {
		t.Error("clean stream flagged truncated")
	}
	if !strings.Contains(out.String(), "kinds this reader does not speak") {
		t.Errorf("report footer missing the alien-kind note:\n%s", out.String())
	}
}

// TestMillionEventStreamBoundedMemory is the scale gate: a million-event
// binary capture must stream through the full report pipeline with
// retained memory proportional to the number of distinct links, not
// events.
func TestMillionEventStreamBoundedMemory(t *testing.T) {
	const events = 1_000_000
	path := filepath.Join(t.TempDir(), "big.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	// RingSize covering the whole run keeps generation loss-free without
	// pacing the emit loop against the writer's flush ticker.
	w, err := trace.NewWriter(f, trace.Config{RingSize: 1 << 21})
	if err != nil {
		t.Fatal(err)
	}
	nodes := [4]uint32{w.Intern("T1"), w.Intern("T2"), w.Intern("L1"), w.Intern("L2")}
	for i := 0; i < events; i++ {
		k := trace.KindPause
		if i%2 == 1 {
			k = trace.KindResume
		}
		w.Emit(trace.Entry{
			Tick: int64(i) * 100, Kind: k, Prio: 1,
			A: nodes[i%4], B: nodes[(i+1)%4], Depth: int64(i % 9216),
		})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if n := w.Dropped(); n != 0 {
		t.Fatalf("generation dropped %d events; the streaming claim needs all %d", n, events)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	in, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var out bytes.Buffer
	diag, err := run(in, &out, "binary", "report", 10)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	if diag.Skipped != 0 {
		t.Errorf("skipped = %d, want 0", diag.Skipped)
	}
	if !strings.Contains(out.String(), fmt.Sprintf("%d events", events)) {
		t.Errorf("report did not fold all events:\n%s", out.String())
	}
	// The 32MB input must not be resident: allow a generous fixed budget
	// for histograms, tables and test scaffolding.
	const budget = 8 << 20
	if growth := int64(after.HeapAlloc) - int64(before.HeapAlloc); growth > budget {
		t.Errorf("heap grew %d bytes analyzing a %d-event trace; want < %d (bounded memory)",
			growth, events, budget)
	}
}
