package sim

import (
	"bytes"
	"io"
	"testing"
	"time"

	"repro/internal/trace"
)

// fig3FlightRecNet is fig3DetectorNet (no Tagger, so the CBD forms)
// with a flight recorder armed last, wrapping any prior tracer.
func fig3FlightRecNet(t *testing.T, cfg FlightRecConfig) (*Network, *FlightRecorder) {
	t.Helper()
	n, _, _ := fig3DetectorNet(t, DetectorConfig{Mitigation: MitigateNone}, false)
	return n, n.EnableFlightRecorder(cfg)
}

// decodeIncident parses one incident capture back into its events and
// snapshot, failing on any damage.
func decodeIncident(t *testing.T, data []byte) ([]trace.Event, *trace.Snapshot) {
	t.Helper()
	r, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var evs []trace.Event
	for {
		ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
	if r.Truncated() || r.Skipped() != 0 {
		t.Fatalf("incident damaged: truncated=%v skipped=%d", r.Truncated(), r.Skipped())
	}
	return evs, r.Snapshot()
}

// TestFlightRecorderCapturesFig3Deadlock: the recorder must freeze on
// the Figure 3 CBD with a complete, self-contained incident — wait-for
// cycle, queue states, live detector tags — and the capture must be
// byte-identical across runs.
func TestFlightRecorderCapturesFig3Deadlock(t *testing.T) {
	run := func() []Incident {
		n, fr := fig3FlightRecNet(t, FlightRecConfig{})
		n.Run(20 * time.Millisecond)
		return fr.Incidents()
	}
	incs := run()
	if len(incs) == 0 {
		t.Fatal("no incidents captured on a deadlocking run")
	}
	inc := incs[0]
	if inc.Trigger != TriggerDeadlockOnset && inc.Trigger != TriggerDetectorFire {
		t.Fatalf("first trigger = %q", inc.Trigger)
	}
	evs, snap := decodeIncident(t, inc.Data)
	if snap == nil || !snap.Complete {
		t.Fatalf("snapshot = %+v, want complete", snap)
	}
	if snap.Trigger != inc.Trigger || snap.Node != inc.Node || snap.Tick != int64(inc.At) {
		t.Fatalf("snapshot metadata %q/%q/%d != incident %q/%q/%d",
			snap.Trigger, snap.Node, snap.Tick, inc.Trigger, inc.Node, int64(inc.At))
	}
	if len(snap.WaitQueues) == 0 || len(snap.WaitEdges) == 0 {
		t.Fatalf("wait-for graph empty: %d queues, %d edges", len(snap.WaitQueues), len(snap.WaitEdges))
	}
	if len(snap.Queues) == 0 {
		t.Fatal("no queue states in snapshot")
	}
	if len(snap.DetTags) == 0 {
		t.Fatal("detector armed but no live tags in snapshot")
	}
	// The event window must end at (or after) onset: pauses leading in.
	var pauses int
	for _, ev := range evs {
		if ev.Kind == "pause" {
			pauses++
		}
	}
	if pauses == 0 {
		t.Fatal("event window holds no pauses before the onset")
	}

	// Determinism: same seed, same capture, byte for byte.
	incs2 := run()
	if len(incs2) != len(incs) {
		t.Fatalf("capture count differs across runs: %d vs %d", len(incs2), len(incs))
	}
	if !bytes.Equal(incs[0].Data, incs2[0].Data) {
		t.Fatal("incident bytes differ across identical runs")
	}
}

// TestFlightRecorderRuleAttribution: with Tagger rules installed the
// snapshot must attribute queued bytes to the TCAM rules that
// classified them, and every referenced rule ID must have a definition
// in the same file. Tagger prevents the Figure 3 deadlock, so use the
// Figure 8a scenario — rules installed but the broken legacy egress
// mapping, which blows through headroom and fires TriggerInvariant.
func TestFlightRecorderRuleAttribution(t *testing.T) {
	n := fig8Setup(t, true)
	fr := n.EnableFlightRecorder(FlightRecConfig{})
	n.Run(20 * time.Millisecond)
	incs := fr.Incidents()
	if len(incs) == 0 {
		t.Fatal("legacy Fig 8a run lost lossless packets but captured nothing")
	}
	inc := incs[0]
	if inc.Trigger != TriggerInvariant {
		t.Fatalf("trigger = %q, want %q", inc.Trigger, TriggerInvariant)
	}
	_, snap := decodeIncident(t, inc.Data)
	if snap == nil || !snap.Complete {
		t.Fatalf("snapshot = %+v, want complete", snap)
	}
	if len(snap.RuleMatches) == 0 {
		t.Fatal("rules installed but snapshot attributes no queued bytes to them")
	}
	defined := map[int]bool{}
	for _, rd := range snap.RuleDefs {
		defined[rd.ID] = true
	}
	var exact int
	for _, rm := range snap.RuleMatches {
		if rm.RuleID == trace.RuleIDNone {
			continue
		}
		exact++
		if !defined[rm.RuleID] {
			t.Fatalf("rule match references undefined rule ID %d", rm.RuleID)
		}
	}
	if exact == 0 {
		t.Fatal("every match fell to the default action; exact TCAM hits expected")
	}
}

// TestFlightRecorderCooldownCapsIncidents: MaxIncidents bounds captures
// and later triggers count as dropped, not silently ignored.
func TestFlightRecorderCooldownCapsIncidents(t *testing.T) {
	n, fr := fig3FlightRecNet(t, FlightRecConfig{MaxIncidents: 1, Cooldown: time.Microsecond})
	n.Run(20 * time.Millisecond)
	if fr.captured != 1 {
		t.Fatalf("captured = %d, want 1", fr.captured)
	}
	if fr.DroppedTriggers() == 0 {
		t.Fatal("persistent deadlock re-triggered nothing; dropped counter idle")
	}
	if len(fr.Incidents()) != 1 {
		t.Fatalf("incidents = %d, want 1", len(fr.Incidents()))
	}
}

// TestFlightRecorderChainsInnerTracer: wrapping must not starve a
// tracer installed before the recorder.
func TestFlightRecorderChainsInnerTracer(t *testing.T) {
	n, _, _ := fig3DetectorNet(t, DetectorConfig{Mitigation: MitigateNone}, false)
	var inner int
	n.SetTracer(traceFunc(func(ev TraceEvent) { inner++ }))
	fr := n.EnableFlightRecorder(FlightRecConfig{})
	n.Run(5 * time.Millisecond)
	if inner == 0 {
		t.Fatal("inner tracer starved by the flight recorder")
	}
	if fr.captured == 0 {
		t.Fatal("recorder captured nothing")
	}
}

// TestFlightRecorderSink: the sink sees every capture as it happens.
func TestFlightRecorderSink(t *testing.T) {
	var sunk []Incident
	cfg := FlightRecConfig{Sink: func(inc Incident) error { sunk = append(sunk, inc); return nil }}
	n, fr := fig3FlightRecNet(t, cfg)
	n.Run(20 * time.Millisecond)
	if len(sunk) != fr.captured {
		t.Fatalf("sink saw %d incidents, recorder captured %d", len(sunk), fr.captured)
	}
	if fr.SinkErr() != nil {
		t.Fatal(fr.SinkErr())
	}
}

// TestFlightRecorderZeroAlloc gates the steady-state record path: an
// event whose strings are already interned must record without heap
// allocation. (The satellite CI gate; capture-time allocation is fine.)
func TestFlightRecorderZeroAlloc(t *testing.T) {
	fr := &FlightRecorder{rec: trace.NewRecorder(1 << 12)}
	ev := TraceEvent{T: 1, Kind: "pause", Node: "T0", Peer: "L1", Prio: 1, Depth: 96 << 10}
	fr.Trace(ev) // intern once
	if avg := testing.AllocsPerRun(1000, func() {
		ev.T++
		fr.Trace(ev)
	}); avg != 0 {
		t.Fatalf("allocs/event = %v, want 0", avg)
	}
	ev.Kind = "resume"
	fr.Trace(ev)
	if avg := testing.AllocsPerRun(1000, func() {
		ev.T++
		fr.Trace(ev)
	}); avg != 0 {
		t.Fatalf("resume allocs/event = %v, want 0", avg)
	}
}
