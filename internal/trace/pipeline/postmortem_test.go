package pipeline

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/trace"
)

// syntheticIncident builds a flight-recorder capture in memory: a short
// pause window closing into a 3-hop wait-for cycle (A->B->C->A) plus a
// collateral paused queue, rule attribution on one hop, and one live
// detector tag.
func syntheticIncident(t *testing.T) []byte {
	t.Helper()
	rec := trace.NewRecorder(64)
	sA, sB, sC, sD := rec.Intern("A"), rec.Intern("B"), rec.Intern("C"), rec.Intern("D")
	green := rec.Intern("green")
	trig := rec.Intern("deadlock-onset")
	desc := rec.Intern("A: tag 1 in2 out4 -> 2")

	rec.Record(trace.Entry{Tick: 1000, Kind: trace.KindPause, A: sB, B: sA, Prio: 1, Depth: 9216})
	rec.Record(trace.Entry{Tick: 2000, Kind: trace.KindPause, A: sC, B: sB, Prio: 1, Depth: 9216})
	rec.Record(trace.Entry{Tick: 3000, Kind: trace.KindPause, A: sA, B: sC, Prio: 1, Depth: 9216})
	rec.Record(trace.Entry{Tick: 5000, Kind: trace.KindDeadlock, A: sA, Aux: 3})
	for _, edge := range []string{"A->B", "B->C", "C->A"} {
		rec.Record(trace.Entry{Tick: 5000, Kind: trace.KindCycleEdge, C: rec.Intern(edge)})
	}

	snap := []trace.Entry{
		trace.SnapStartEntry(5000, sA, trig),
		trace.WaitQueueEntry(0, sA, sB, 1, 64<<10, 42),
		trace.WaitQueueEntry(1, sB, sC, 1, 32<<10, 21),
		trace.WaitQueueEntry(2, sC, sA, 1, 16<<10, 10),
		trace.WaitQueueEntry(3, sD, sA, 1, 8<<10, 5), // collateral, no out-edge
		trace.WaitEdgeEntry(0, 1),
		trace.WaitEdgeEntry(1, 2),
		trace.WaitEdgeEntry(2, 0),
		trace.WaitEdgeEntry(3, 0),
		trace.QueueStateEntry(sA, sB, 1, trace.QFlagPausedByPeer, 9216, 64<<10),
		trace.RuleDefEntry(7, desc),
		trace.RuleMatchEntry(sA, green, sB, 1, 7, 48<<10),
		trace.RuleMatchEntry(sA, green, sB, 1, trace.RuleIDNone, 16<<10),
		trace.DetTagEntry(sA, sB, 2, 1, 0xbeef, trace.DetFlagOrigin),
		trace.SnapEndEntry(5000, 0, 15),
	}
	var buf bytes.Buffer
	if err := rec.Dump(&buf, snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPostmortemReconstructsCycle: the report must name the canonical
// wait-for cycle hop by hop with flow and rule attribution, the onset
// timeline, the collateral queue, and the live detector tag.
func TestPostmortemReconstructsCycle(t *testing.T) {
	data := syntheticIncident(t)
	src, err := NewBinarySource(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := RunPostmortem(src, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	wants := []string{
		"POST-MORTEM: deadlock-onset at A, frozen t=5µs",
		"wait-for cycle (3 hops):",
		"[1] A -> B prio 1",
		"[2] B -> C prio 1",
		"[3] C -> A prio 1",
		"first pause in window: B -> A prio 1",
		"deadlock onset: cycle of 3 pause edges",
		"pause -> closure 4µs",
		"flow green",
		"via rule 7 [A: tag 1 in2 out4 -> 2]",
		"via default action",
		"collateral paused queues (outside the cycle): 1",
		"D -> A prio 1",
		"live detector tags at freeze (1):",
		"A port 2 prio 1: tag 0xbeef (origin) toward B",
	}
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	// Determinism: identical input, identical report.
	src2, _ := NewBinarySource(bytes.NewReader(data))
	var b2 strings.Builder
	if err := RunPostmortem(src2, &b2); err != nil {
		t.Fatal(err)
	}
	if out != b2.String() {
		t.Error("postmortem report differs across identical inputs")
	}
}

// TestPostmortemCanonicalRotation: whichever vertex the DFS enters
// first, the rendered cycle starts from the smallest (node, peer,
// prio) — so reports from different capture orders diff clean.
func TestPostmortemCanonicalRotation(t *testing.T) {
	rec := trace.NewRecorder(64)
	sA, sB, sC := rec.Intern("A"), rec.Intern("B"), rec.Intern("C")
	trig := rec.Intern("detector-fire")
	// Vertices listed C, B, A; the canonical cycle must still open at A.
	snap := []trace.Entry{
		trace.SnapStartEntry(100, sC, trig),
		trace.WaitQueueEntry(0, sC, sA, 1, 1024, 1),
		trace.WaitQueueEntry(1, sB, sC, 1, 1024, 1),
		trace.WaitQueueEntry(2, sA, sB, 1, 1024, 1),
		trace.WaitEdgeEntry(0, 2),
		trace.WaitEdgeEntry(2, 1),
		trace.WaitEdgeEntry(1, 0),
		trace.SnapEndEntry(100, 0, 8),
	}
	var buf bytes.Buffer
	if err := rec.Dump(&buf, snap); err != nil {
		t.Fatal(err)
	}
	src, err := NewBinarySource(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := RunPostmortem(src, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "[1] A -> B prio 1") {
		t.Errorf("cycle not canonically rotated to open at A:\n%s", b.String())
	}
}

// TestPostmortemNoSnapshot: a plain trace (no flight-recorder records)
// still gets a timeline, plus an explicit note that reconstruction
// needs a snapshot — not a crash, not an empty report.
func TestPostmortemNoSnapshot(t *testing.T) {
	src := NewJSONLSource(strings.NewReader(strings.Join([]string{
		`{"t":1000,"kind":"pause","node":"A","peer":"B","prio":1}`,
		`{"t":5000,"kind":"deadlock","node":"A","cycle":["A->B","B->A"]}`,
	}, "\n")))
	var b strings.Builder
	if err := RunPostmortem(src, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "no flight-recorder snapshot in this trace") {
		t.Errorf("missing no-snapshot note:\n%s", out)
	}
	if !strings.Contains(out, "deadlock onset: cycle of 2 pause edges") {
		t.Errorf("timeline lost the onset:\n%s", out)
	}
}

// TestPostmortemAcyclicSnapshot: a snapshot whose wait-for graph holds
// no cycle (e.g. an invariant-triggered capture) reports that fact.
func TestPostmortemAcyclicSnapshot(t *testing.T) {
	rec := trace.NewRecorder(64)
	sA, sB := rec.Intern("A"), rec.Intern("B")
	trig := rec.Intern("invariant-violation")
	snap := []trace.Entry{
		trace.SnapStartEntry(100, sA, trig),
		trace.WaitQueueEntry(0, sA, sB, 1, 1024, 1),
		trace.SnapEndEntry(100, 0, 3),
	}
	var buf bytes.Buffer
	if err := rec.Dump(&buf, snap); err != nil {
		t.Fatal(err)
	}
	src, err := NewBinarySource(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := RunPostmortem(src, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "wait-for graph holds no cycle at freeze (1 paused queues, 0 edges)") {
		t.Errorf("missing acyclic note:\n%s", b.String())
	}
}
