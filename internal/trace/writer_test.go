package trace

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

// collect drains every event from a binary stream.
func collect(t *testing.T, b []byte) ([]Event, *Reader) {
	t.Helper()
	r, err := NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var out []Event
	for {
		ev, err := r.Next()
		if err == io.EOF {
			return out, r
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ev)
	}
}

// TestWriterRoundTrip pins the full encode/decode cycle across every
// event shape, including string interning and cycle assembly.
func TestWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t1, l1 := w.Intern("T1"), w.Intern("L1")
	w.Emit(Entry{Tick: 10, Kind: KindPause, A: t1, B: l1, Prio: 1, Depth: 9216})
	f1 := w.Intern("f1")
	ttl := w.Intern("ttl")
	w.Emit(Entry{Tick: 15, Kind: KindDrop, A: t1, B: f1, C: ttl})
	w.Emit(Entry{Tick: 20, Kind: KindResume, A: t1, B: l1, Prio: 1, Depth: 1024})
	w.Emit(Entry{Tick: 25, Kind: KindDemote, A: l1, B: f1})
	e1, e2 := w.Intern("L1->T1 prio 1"), w.Intern("T1->L1 prio 1")
	w.Emit(Entry{Tick: 30, Kind: KindDeadlock, A: l1, Aux: 2})
	w.Emit(Entry{Tick: 30, Kind: KindCycleEdge, C: e1})
	w.Emit(Entry{Tick: 30, Kind: KindCycleEdge, C: e2})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", w.Dropped())
	}

	events, _ := collect(t, buf.Bytes())
	want := []Event{
		{T: 10, Kind: "pause", Node: "T1", Peer: "L1", Prio: 1, Depth: 9216},
		{T: 15, Kind: "drop", Node: "T1", Flow: "f1", Reason: "ttl"},
		{T: 20, Kind: "resume", Node: "T1", Peer: "L1", Prio: 1, Depth: 1024},
		{T: 25, Kind: "demote", Node: "L1", Flow: "f1"},
		{T: 30, Kind: "deadlock", Node: "L1", Cycle: []string{"L1->T1 prio 1", "T1->L1 prio 1"}},
	}
	if len(events) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(events), len(want), events)
	}
	for i := range want {
		got := events[i]
		if got.T != want[i].T || got.Kind != want[i].Kind || got.Node != want[i].Node ||
			got.Peer != want[i].Peer || got.Prio != want[i].Prio || got.Depth != want[i].Depth ||
			got.Flow != want[i].Flow || got.Reason != want[i].Reason {
			t.Errorf("event %d = %+v, want %+v", i, got, want[i])
		}
	}
	if len(events[4].Cycle) != 2 || events[4].Cycle[0] != "L1->T1 prio 1" {
		t.Errorf("cycle = %v", events[4].Cycle)
	}
}

// TestInternStability: repeated interning returns the same ID and emits
// exactly one definition; IDs are dense from 1.
func TestInternStability(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	a := w.Intern("alpha")
	b := w.Intern("beta")
	if a != 1 || b != 2 {
		t.Fatalf("ids = %d, %d, want 1, 2", a, b)
	}
	if w.Intern("alpha") != a || w.Intern("") != 0 {
		t.Fatal("interning unstable")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Two strdef records (1 entry + 1 payload slot each), no events.
	if want := HeaderSize + 4*EntrySize; buf.Len() != want {
		t.Fatalf("stream length = %d, want %d", buf.Len(), want)
	}
}

// TestLongStringInterning: payloads spanning several slots survive the
// round trip.
func TestLongStringInterning(t *testing.T) {
	long := string(bytes.Repeat([]byte("spine-plane-7/"), 20)) // 280 bytes
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	id := w.Intern(long)
	w.Emit(Entry{Tick: 1, Kind: KindDemote, A: id, B: id})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	events, _ := collect(t, buf.Bytes())
	if len(events) != 1 || events[0].Node != long {
		t.Fatalf("long string mangled: %d events", len(events))
	}
}

// TestWriterNeverLossyWithoutSinkError: a Writer loses nothing while
// its sink accepts writes, whatever the (ignored) ring settings say — a
// 64-slot "ring" with an hourly "drain" captures all 100 000 records.
func TestWriterNeverLossyWithoutSinkError(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Config{RingSize: 64, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	const emitted = 100_000
	node := w.Intern("N")
	for i := 0; i < emitted; i++ {
		w.Emit(Entry{Tick: int64(i), Kind: KindPause, A: node, B: node})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", w.Dropped())
	}
	events, r := collect(t, buf.Bytes())
	if len(events) != emitted || r.Skipped() != 0 || r.Truncated() {
		t.Fatalf("decoded %d of %d events (skipped %d, truncated %v)", len(events), emitted, r.Skipped(), r.Truncated())
	}
	for i, ev := range events {
		if ev.T != int64(i) || ev.Node != "N" {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
}

// TestOverlongStringInternedOnce: a string longer than a definition can
// carry keeps one ID — the table is keyed by the whole string — and is
// defined once, by its first 65 535 bytes — by a Writer and a Recorder.
func TestOverlongStringInternedOnce(t *testing.T) {
	long := strings.Repeat("x", 70_000)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := w.Intern(long), w.Intern(long); a != 1 || b != 1 {
		t.Fatalf("writer IDs = %d, %d, want 1, 1", a, b)
	}
	w.Emit(Entry{Tick: 1, Kind: KindDemote, A: 1, B: 1})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if want := HeaderSize + (2+strDefSlots(maxStrLen))*EntrySize; buf.Len() != want {
		t.Fatalf("stream length = %d, want %d (one definition, one event)", buf.Len(), want)
	}
	events, _ := collect(t, buf.Bytes())
	if len(events) != 1 || events[0].Node != long[:maxStrLen] {
		t.Fatalf("overlong string not defined by its prefix: %d events", len(events))
	}

	rec := NewRecorder(64)
	if a, b := rec.Intern(long), rec.Intern(long); a != 1 || b != 1 {
		t.Fatalf("recorder IDs = %d, %d, want 1, 1", a, b)
	}
}

// TestWriterSinkError: a failing sink surfaces through Close and the
// discarded records are counted, never stalling the producer. (The
// header lives in the 64 KiB buffer, so the error lands on the first
// record that forces a flush.)
func TestWriterSinkError(t *testing.T) {
	w, err := NewWriter(failingSink{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	id := w.Intern("n")
	const emitted = 5000 // well past the 64 KB buffer
	for i := 0; i < emitted; i++ {
		w.Emit(Entry{Tick: int64(i), Kind: KindPause, A: id, B: id})
	}
	if err := w.Close(); !errors.Is(err, errSink) {
		t.Fatalf("Close err = %v, want sink error", err)
	}
	if w.Dropped() == 0 {
		t.Error("records discarded after sink error were not counted")
	}
}

var errSink = errors.New("sink failed")

// failingSink rejects every write.
type failingSink struct{}

func (failingSink) Write([]byte) (int, error) { return 0, errSink }
