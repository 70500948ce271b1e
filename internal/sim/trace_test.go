package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/trace/pipeline"
)

func TestCountingTracerSeesPFC(t *testing.T) {
	c, _, n := testbedNet(t, routing.UpDown)
	g := c.Graph
	tr := &CountingTracer{}
	n.SetTracer(tr)
	n.AddFlow(FlowSpec{Name: "a", Src: g.MustLookup("H5"), Dst: g.MustLookup("H1")})
	n.AddFlow(FlowSpec{Name: "b", Src: g.MustLookup("H9"), Dst: g.MustLookup("H1")})
	n.Run(5 * time.Millisecond)
	if tr.Counts["pause"] == 0 || tr.Counts["resume"] == 0 {
		t.Fatalf("counts: %v", tr.Counts)
	}
	if tr.Counts["pause"] != n.PauseFrames {
		t.Errorf("tracer pauses %d vs counter %d", tr.Counts["pause"], n.PauseFrames)
	}
}

// fig3Capture traces the Figure 3 deadlock through a BinaryTracer and
// returns the loss-free capture and every event the tracer was handed.
func fig3Capture(t *testing.T) ([]byte, []TraceEvent) {
	t.Helper()
	var bin bytes.Buffer
	bt, err := NewBinaryTracer(&bin, trace.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingTracer{inner: bt}
	n := fig3Deadlock(t, false)
	n.SetTracer(rec)
	n.Run(10 * time.Millisecond)
	if err := bt.Close(); err != nil {
		t.Fatal(err)
	}
	if bt.Dropped() != 0 {
		t.Fatalf("binary capture dropped %d records", bt.Dropped())
	}
	return bin.Bytes(), rec.events
}

// recordingTracer keeps every event it sees and passes it on.
type recordingTracer struct {
	inner  Tracer
	events []TraceEvent
}

func (r *recordingTracer) Trace(ev TraceEvent) {
	r.inner.Trace(ev)
	ev.Cycle = slices.Clone(ev.Cycle)
	r.events = append(r.events, ev)
}

func TestBinaryTracerDeadlockOnset(t *testing.T) {
	bin, _ := fig3Capture(t)
	r, err := trace.NewReader(bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	var sawDeadlock bool
	for {
		ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind == "deadlock" {
			sawDeadlock = true
			if len(ev.Cycle) < 2 {
				t.Errorf("deadlock event without cycle: %+v", ev)
			}
			if ev.T <= 0 {
				t.Errorf("deadlock event without timestamp: %+v", ev)
			}
		}
	}
	if !sawDeadlock {
		t.Fatal("no deadlock onset event traced")
	}
}

func TestTracerDemoteAndDrops(t *testing.T) {
	// Routing loop with Tagger: looped packets are demoted to lossy and
	// then die; the tracer must see both.
	c, tb, n := testbedNet(t, routing.UpDown)
	g := c.Graph
	nn := func(s string) topology.NodeID { return g.MustLookup(s) }
	n.InstallTagger(core.ClosRules(g, 1, 1))
	tr := &CountingTracer{}
	n.SetTracer(tr)
	n.AddFlow(FlowSpec{Name: "F2", Src: nn("H2"), Dst: nn("H6")})
	n.At(time.Millisecond, func() {
		tb.OverrideNextNode(nn("T1"), nn("H6"), nn("L1"))
		tb.OverrideNextNode(nn("L1"), nn("H6"), nn("T1"))
	})
	n.Run(8 * time.Millisecond)
	if tr.Counts["demote"] == 0 {
		t.Error("no demotions traced")
	}
	if tr.Counts["drop"] == 0 {
		t.Error("no drops traced")
	}
	if tr.Counts["deadlock"] != 0 {
		t.Error("phantom deadlock traced under Tagger")
	}
}

// TestBinaryTracerWriteError pins the failing-sink contract: no event
// is lost before the sink fails, Dropped counts the record that hit the
// error and every one after it, and Close reports the error.
func TestBinaryTracerWriteError(t *testing.T) {
	bt, err := NewBinaryTracer(failingWriter{}, trace.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ev := TraceEvent{Kind: "pause", Node: "A", Peer: "B", Prio: 1}
	traced := 0
	for ; bt.Dropped() == 0; traced++ {
		if traced == 1<<20 {
			t.Fatal("a failing sink never surfaced")
		}
		bt.Trace(ev)
	}
	if bt.Dropped() != 1 {
		t.Fatalf("Dropped = %d after the failing event, want 1", bt.Dropped())
	}
	bt.Trace(ev)
	bt.Trace(TraceEvent{Kind: "drop", Node: "A", Flow: "f", Reason: "ttl"})
	if bt.Dropped() != 5 {
		t.Fatalf("Dropped = %d after a pause and a drop with two new strings, want 5", bt.Dropped())
	}
	if err := bt.Close(); !errors.Is(err, errWrite) {
		t.Fatalf("Close err = %v, want the sink error", err)
	}
}

// TestBinaryTracerCountsNothingOnSuccess: a healthy sink reports zero
// loss.
func TestBinaryTracerCountsNothingOnSuccess(t *testing.T) {
	bt, err := NewBinaryTracer(io.Discard, trace.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		bt.Trace(TraceEvent{T: int64(i), Kind: "pause", Node: "A", Peer: "B"})
	}
	if err := bt.Close(); err != nil || bt.Dropped() != 0 {
		t.Fatalf("err=%v dropped=%d", err, bt.Dropped())
	}
}

// TestBinaryTracerMatchesJSONL: a binary capture exported to JSONL is
// byte-identical to the emitted events encoded as JSON lines — the
// format is an encoding, not a different observer, and the export
// stands in for a JSONL tracer.
func TestBinaryTracerMatchesJSONL(t *testing.T) {
	bin, events := fig3Capture(t)

	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	sawDeadlock := false
	for i := range events {
		sawDeadlock = sawDeadlock || events[i].Kind == "deadlock"
		if err := enc.Encode(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !sawDeadlock {
		t.Fatal("scenario produced no deadlock onset; the comparison is vacuous")
	}

	src, err := pipeline.Open(bytes.NewReader(bin), pipeline.FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := pipeline.Run(src, nil, pipeline.NewJSONLSink(&got)); err != nil {
		t.Fatal(err)
	}
	if src.Skipped() != 0 {
		t.Fatalf("binary decode skipped %d records", src.Skipped())
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("JSONL export of the capture (%d bytes) differs from the emitted events (%d bytes)", got.Len(), want.Len())
	}
}

// TestBinaryTracerZeroAlloc is the capture-cost gate, the tracing
// sibling of TestSteadyStateZeroAlloc: once names are interned,
// recording pause/resume/drop events allocates nothing.
func TestBinaryTracerZeroAlloc(t *testing.T) {
	bt, err := NewBinaryTracer(io.Discard, trace.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	pause := TraceEvent{T: 1, Kind: "pause", Node: "T1", Peer: "L1", Prio: 1, Depth: 9216}
	resume := TraceEvent{T: 2, Kind: "resume", Node: "T1", Peer: "L1", Prio: 1, Depth: 512}
	drop := TraceEvent{T: 3, Kind: "drop", Node: "T1", Flow: "f1", Reason: "ttl"}
	bt.Trace(pause) // warm the intern table
	bt.Trace(drop)
	if avg := testing.AllocsPerRun(1000, func() {
		bt.Trace(pause)
		bt.Trace(resume)
		bt.Trace(drop)
	}); avg != 0 {
		t.Errorf("binary capture allocates %.2f allocs per 3 events, want 0", avg)
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) {
	return 0, errWrite
}

var errWrite = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "sink failed" }
