package pipeline

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/trace"
)

// run pumps a source through Normalize into a Summary, the
// cmd/taggertrace report path.
func run(t *testing.T, src Source) (*Summary, *Normalize) {
	t.Helper()
	sum, norm := NewSummary(), &Normalize{}
	if err := Run(src, []Stage{norm}, sum); err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	return sum, norm
}

// TestAnalyzeSkipsMalformedLines pins the PR 3 contract on the staged
// pipeline: malformed or truncated JSONL lines are skipped and counted
// while every well-formed event before AND after them is still folded
// in — one bad line costs one event, never the analysis.
func TestAnalyzeSkipsMalformedLines(t *testing.T) {
	traceText := strings.Join([]string{
		`{"t":10,"kind":"pause","node":"T1","peer":"L1","prio":1}`,
		`{"t":15,"kind":"drop","node":"T1","flow":"f1","reason":"ttl"}`,
		`not json at all`,
		`{"t":20,"kind":"resume","node":"T1","peer":"L1"`, // truncated
		``, // blank lines are not events and not errors
		`{"t":30,"kind":"resume","node":"T1","peer":"L1","prio":1}`,
		`{"t":40,"kind":"deadlock","node":"L1","cycle":["L1->T1","T1->L1"]}`,
		`{"t":45,"kind":"demote","node":"T1","flow":"f2"}`,
		`{"t":50,"kind":"pau`, // truncated final line
	}, "\n")

	sum, norm := run(t, NewJSONLSource(strings.NewReader(traceText)))
	if sum.Events != 5 {
		t.Errorf("Events = %d, want 5", sum.Events)
	}
	if norm.Dropped != 0 {
		t.Errorf("normalize dropped %d valid events", norm.Dropped)
	}
	k := LinkKey{"T1", "L1"}
	if sum.Pauses[k] != 1 || sum.Resumes[k] != 1 {
		t.Errorf("pauses/resumes = %d/%d, want 1/1", sum.Pauses[k], sum.Resumes[k])
	}
	if sum.DropByReason["ttl"] != 1 || sum.Demotes != 1 || sum.Deadlocks != 1 {
		t.Errorf("drops/demotes/deadlocks = %d/%d/%d",
			sum.DropByReason["ttl"], sum.Demotes, sum.Deadlocks)
	}
	if sum.FirstDeadlock != 40 || len(sum.FirstCycle) != 2 {
		t.Errorf("first deadlock = %d cycle %v", sum.FirstDeadlock, sum.FirstCycle)
	}
	if sum.LastT != 45 {
		t.Errorf("LastT = %d, want 45", sum.LastT)
	}

	var b strings.Builder
	sum.Report(&b, 10, 3)
	out := b.String()
	if !strings.Contains(out, "3 malformed lines skipped") {
		t.Errorf("report does not surface the skip count:\n%s", out)
	}
	if !strings.Contains(out, "DEADLOCK onset at 40ns") {
		t.Errorf("report lost the deadlock:\n%s", out)
	}
}

// TestJSONLSourceSkipCount: the source itself owns the malformed-line
// tally used for reporting.
func TestJSONLSourceSkipCount(t *testing.T) {
	src := NewJSONLSource(strings.NewReader("garbage\n{\"t\":1,\"kind\":\"pause\",\"node\":\"A\",\"peer\":\"B\"}\n{bad\n"))
	sum, _ := run(t, src)
	if src.Skipped() != 2 {
		t.Errorf("Skipped = %d, want 2", src.Skipped())
	}
	if sum.Events != 1 {
		t.Errorf("Events = %d, want 1", sum.Events)
	}
}

// TestAnalyzeCleanTrace: a clean trace reports no skips and no
// deadlock.
func TestAnalyzeCleanTrace(t *testing.T) {
	sum, _ := run(t, NewJSONLSource(strings.NewReader(
		`{"t":5,"kind":"pause","node":"A","peer":"B","prio":2}`+"\n")))
	if sum.Events != 1 {
		t.Errorf("events = %d, want 1", sum.Events)
	}
	var b strings.Builder
	sum.Report(&b, 10, 0)
	if strings.Contains(b.String(), "skipped") {
		t.Errorf("clean trace must not mention skips:\n%s", b.String())
	}
	if !strings.Contains(b.String(), "no deadlock") {
		t.Errorf("missing no-deadlock line:\n%s", b.String())
	}
}

// TestPauseDurationPercentiles: paired pause/resume intervals feed the
// per-link duration histograms (per priority, so overlapping pauses on
// different priorities pair correctly), unresumed pauses are excluded,
// and the report renders a percentile table honoring top.
func TestPauseDurationPercentiles(t *testing.T) {
	traceText := strings.Join([]string{
		// A->B: two 2µs intervals on prio 1, plus one never-resumed pause.
		`{"t":1000,"kind":"pause","node":"A","peer":"B","prio":1}`,
		`{"t":3000,"kind":"resume","node":"A","peer":"B","prio":1}`,
		`{"t":10000,"kind":"pause","node":"A","peer":"B","prio":1}`,
		`{"t":12000,"kind":"resume","node":"A","peer":"B","prio":1}`,
		`{"t":20000,"kind":"pause","node":"A","peer":"B","prio":2}`,
		// C->D: three 4µs intervals, overlapping across priorities.
		`{"t":1000,"kind":"pause","node":"C","peer":"D","prio":1}`,
		`{"t":2000,"kind":"pause","node":"C","peer":"D","prio":2}`,
		`{"t":5000,"kind":"resume","node":"C","peer":"D","prio":1}`,
		`{"t":6000,"kind":"resume","node":"C","peer":"D","prio":2}`,
		`{"t":9000,"kind":"pause","node":"C","peer":"D","prio":1}`,
		`{"t":13000,"kind":"resume","node":"C","peer":"D","prio":1}`,
	}, "\n")

	sum, _ := run(t, NewJSONLSource(strings.NewReader(traceText)))
	ab, cd := LinkKey{"A", "B"}, LinkKey{"C", "D"}
	if got := sum.PauseDur[ab].Snapshot().Count; got != 2 {
		t.Errorf("A->B intervals = %d, want 2 (open pause must not count)", got)
	}
	if got := sum.PauseDur[cd].Snapshot().Count; got != 3 {
		t.Errorf("C->D intervals = %d, want 3", got)
	}
	snap := sum.PauseDur[cd].Snapshot()
	if snap.Min != 4e-6 || snap.Max != 4e-6 {
		t.Errorf("C->D min/max = %v/%v s, want 4µs exactly", snap.Min, snap.Max)
	}

	var b strings.Builder
	sum.Report(&b, 10, 0)
	out := b.String()
	if !strings.Contains(out, "pause durations") || !strings.Contains(out, "p99") {
		t.Fatalf("report missing the percentile table:\n%s", out)
	}
	if !strings.Contains(out, "2µs") || !strings.Contains(out, "4µs") {
		t.Errorf("percentile table missing expected durations:\n%s", out)
	}

	// top=1 keeps only the busiest link (C->D, 3 intervals).
	b.Reset()
	sum.Report(&b, 1, 0)
	durSection := b.String()[strings.Index(b.String(), "pause durations"):]
	if !strings.Contains(durSection, "C") || strings.Contains(durSection, "A     B") {
		t.Errorf("top=1 did not keep only the busiest link:\n%s", durSection)
	}
}

// TestQueueDepthTable: pause/resume depth samples render per-link
// queue-depth percentiles.
func TestQueueDepthTable(t *testing.T) {
	traceText := strings.Join([]string{
		`{"t":1000,"kind":"pause","node":"A","peer":"B","prio":1,"depth":9216}`,
		`{"t":3000,"kind":"resume","node":"A","peer":"B","prio":1,"depth":1024}`,
	}, "\n")
	sum, _ := run(t, NewJSONLSource(strings.NewReader(traceText)))
	if got := sum.QDepth[LinkKey{"A", "B"}].Snapshot().Count; got != 2 {
		t.Fatalf("depth samples = %d, want 2", got)
	}
	var b strings.Builder
	sum.Report(&b, 10, 0)
	if !strings.Contains(b.String(), "queue depth at PFC transitions") {
		t.Errorf("report missing queue-depth table:\n%s", b.String())
	}
}

// TestNormalizeDropsUnattributable: unknown kinds and node-less events
// fall out at the normalize stage, counted, without disturbing
// neighbors.
func TestNormalizeDropsUnattributable(t *testing.T) {
	traceText := strings.Join([]string{
		`{"t":1,"kind":"pause","node":"A","peer":"B","prio":1}`,
		`{"t":2,"kind":"wormhole","node":"A"}`,
		`{"t":3,"kind":"drop","flow":"f1","reason":"ttl"}`,
		`{"t":-4,"kind":"demote","node":"A","flow":"f1"}`,
	}, "\n")
	sum, norm := run(t, NewJSONLSource(strings.NewReader(traceText)))
	if norm.Dropped != 2 {
		t.Errorf("normalize dropped %d, want 2", norm.Dropped)
	}
	if sum.Events != 2 || sum.Demotes != 1 {
		t.Errorf("events/demotes = %d/%d, want 2/1", sum.Events, sum.Demotes)
	}
	if sum.LastT != 1 {
		t.Errorf("LastT = %d (negative timestamp must clamp to 0)", sum.LastT)
	}
}

// TestMixedCorruptionBothFormats: the skip-and-count posture holds
// across both ingest formats in one pipeline contract — JSONL with torn
// lines, binary with torn tails and alien kinds — and the surviving
// events agree.
func TestMixedCorruptionBothFormats(t *testing.T) {
	// Binary: two good events, one alien kind, then a torn final entry.
	var bin bytes.Buffer
	w, err := trace.NewWriter(&bin, trace.Config{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := w.Intern("T1"), w.Intern("L1")
	w.Emit(trace.Entry{Tick: 10, Kind: trace.KindPause, A: a, B: b, Prio: 1})
	w.Emit(trace.Entry{Tick: 30, Kind: trace.KindResume, A: a, B: b, Prio: 1})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	alien := make([]byte, trace.EntrySize)
	alien[8] = 0xEE // kind byte nobody speaks
	bin.Write(alien)
	bin.Write(make([]byte, trace.EntrySize-7)) // torn tail

	bsrc, err := NewBinarySource(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	bsum, _ := run(t, bsrc)
	if bsrc.Skipped() != 2 || !bsrc.Truncated() {
		t.Errorf("binary skipped=%d truncated=%v, want 2/true", bsrc.Skipped(), bsrc.Truncated())
	}

	// The JSONL flavor of the same damage.
	jsrc := NewJSONLSource(strings.NewReader(strings.Join([]string{
		`{"t":10,"kind":"pause","node":"T1","peer":"L1","prio":1}`,
		`]][[`,
		`{"t":30,"kind":"resume","node":"T1","peer":"L1","prio":1}`,
		`{"t":50,"kind":"pau`,
	}, "\n")))
	jsum, _ := run(t, jsrc)
	if jsrc.Skipped() != 2 {
		t.Errorf("jsonl skipped = %d, want 2", jsrc.Skipped())
	}

	k := LinkKey{"T1", "L1"}
	for name, sum := range map[string]*Summary{"binary": bsum, "jsonl": jsum} {
		if sum.Events != 2 || sum.Pauses[k] != 1 || sum.Resumes[k] != 1 {
			t.Errorf("%s: events=%d pauses=%d resumes=%d, want 2/1/1",
				name, sum.Events, sum.Pauses[k], sum.Resumes[k])
		}
		if sum.PauseDur[k].Snapshot().Count != 1 {
			t.Errorf("%s: paired intervals = %d, want 1", name, sum.PauseDur[k].Snapshot().Count)
		}
	}
}

// TestBoundedBatches: a trace much larger than one batch streams
// through a tiny batch buffer; the driver must never grow it.
func TestBoundedBatches(t *testing.T) {
	var sb strings.Builder
	const n = 3 * DefaultBatch
	for i := 0; i < n; i++ {
		sb.WriteString(`{"t":`)
		sb.WriteString(strconv.Itoa(i))
		sb.WriteString(`,"kind":"pause","node":"A","peer":"B","prio":1}`)
		sb.WriteByte('\n')
	}
	sum, _ := run(t, NewJSONLSource(strings.NewReader(sb.String())))
	if sum.Events != n {
		t.Fatalf("events = %d, want %d", sum.Events, n)
	}
	if sum.Pauses[LinkKey{"A", "B"}] != n {
		t.Fatalf("pauses = %d, want %d", sum.Pauses[LinkKey{"A", "B"}], n)
	}
}

// TestEpisodeLifecycles pins the deadlock-episode ledger: each onset
// opens an episode, the first detection samples TTD, and mitigation /
// recovery-flush / a fresh onset / end-of-trace close it as mitigated,
// flushed, dissolved and unresolved respectively.
func TestEpisodeLifecycles(t *testing.T) {
	traceText := strings.Join([]string{
		// Episode 1: detected 2µs after onset, mitigated at +5µs.
		`{"t":1000,"kind":"deadlock","node":"A"}`,
		`{"t":3000,"kind":"detect","node":"A"}`,
		`{"t":6000,"kind":"mitigate","node":"A"}`,
		// Episode 2: never detected, flushed by watchdog recovery.
		`{"t":10000,"kind":"deadlock","node":"B"}`,
		`{"t":14000,"kind":"drop","node":"B","flow":"f","reason":"recovery-flush"}`,
		// Episode 3: dissolved by episode 4's onset.
		`{"t":20000,"kind":"deadlock","node":"C"}`,
		// Episode 4: still open when the trace runs out.
		`{"t":30000,"kind":"deadlock","node":"D"}`,
		`{"t":31000,"kind":"detect","node":"D"}`,
	}, "\n")
	sum, _ := run(t, NewJSONLSource(strings.NewReader(traceText)))

	want := []Episode{
		{Onset: 1000, Detect: 3000, End: 6000, Resolution: "mitigated"},
		{Onset: 10000, Detect: -1, End: 14000, Resolution: "flushed"},
		{Onset: 20000, Detect: -1, End: -1, Resolution: "dissolved"},
		{Onset: 30000, Detect: 31000, End: -1, Resolution: "unresolved"},
	}
	if len(sum.Episodes) != len(want) {
		t.Fatalf("episodes = %d, want %d: %+v", len(sum.Episodes), len(want), sum.Episodes)
	}
	for i, w := range want {
		if sum.Episodes[i] != w {
			t.Errorf("episode %d = %+v, want %+v", i+1, sum.Episodes[i], w)
		}
	}

	var b strings.Builder
	sum.Report(&b, 10, 0)
	for _, line := range []string{
		"deadlock episodes:",
		"mitigated",
		"flushed",
		"dissolved",
		"unresolved (open since 30µs)",
		"1 episode(s) still open at end of trace: the run ended deadlocked",
	} {
		if !strings.Contains(b.String(), line) {
			t.Errorf("report missing %q:\n%s", line, b.String())
		}
	}
}

// TestEpisodeTableAbsentWhenClean: traces without deadlock events render
// no episode table, so pre-existing goldens for clean runs are
// untouched.
func TestEpisodeTableAbsentWhenClean(t *testing.T) {
	sum, _ := run(t, NewJSONLSource(strings.NewReader(
		`{"t":5,"kind":"pause","node":"A","peer":"B","prio":2}`+"\n")))
	var b strings.Builder
	sum.Report(&b, 10, 0)
	if strings.Contains(b.String(), "episode") {
		t.Errorf("clean trace must not render an episode table:\n%s", b.String())
	}
}

// TestEpisodeUnresolvedWithoutClose: a report rendered without Close
// (library callers folding batches by hand) still seals the open
// episode as unresolved.
func TestEpisodeUnresolvedWithoutClose(t *testing.T) {
	sum := NewSummary()
	if err := sum.Consume([]trace.Event{{T: 500, Kind: "deadlock", Node: "A"}}); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	sum.Report(&b, 10, 0)
	if len(sum.Episodes) != 1 || sum.Episodes[0].Resolution != "unresolved" {
		t.Fatalf("episodes = %+v, want one unresolved", sum.Episodes)
	}
}
