package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// header returns a valid 16-byte header with the given tick rate.
func header(tickHz uint64) []byte {
	var b [HeaderSize]byte
	marshalHeader(&b, tickHz)
	return b[:]
}

// rawEntry marshals one entry for hand-built streams.
func rawEntry(e Entry) []byte {
	var b [EntrySize]byte
	e.marshal(&b)
	return b[:]
}

func TestHeaderRoundTrip(t *testing.T) {
	h, err := unmarshalHeader(header(TickHzNanos))
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != Version || h.TickHz != TickHzNanos {
		t.Fatalf("header = %+v", h)
	}
}

func TestHeaderBadMagic(t *testing.T) {
	b := header(TickHzNanos)
	b[0] = 'X'
	if _, err := unmarshalHeader(b); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
	// JSONL fed to the binary reader is the realistic mistake.
	if _, err := NewReader(bytes.NewReader([]byte(`{"t":1,"kind":"pause","node":"A","peer":"B"}`))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("jsonl err = %v, want ErrBadMagic", err)
	}
}

func TestHeaderEndianSwapped(t *testing.T) {
	b := header(TickHzNanos)
	// Rewrite the magic big-endian: a byte-swapped producer.
	binary.BigEndian.PutUint32(b[0:4], Magic)
	if _, err := unmarshalHeader(b); !errors.Is(err, ErrEndianSwapped) {
		t.Fatalf("err = %v, want ErrEndianSwapped", err)
	}
}

func TestHeaderVersionMismatch(t *testing.T) {
	b := header(TickHzNanos)
	binary.LittleEndian.PutUint32(b[4:8], Version+7)
	_, err := unmarshalHeader(b)
	var ve *VersionError
	if !errors.As(err, &ve) || ve.Got != Version+7 {
		t.Fatalf("err = %v, want VersionError{%d}", err, Version+7)
	}
	binary.LittleEndian.PutUint32(b[4:8], 0)
	if _, err := unmarshalHeader(b); !errors.As(err, &ve) {
		t.Fatalf("version 0 err = %v, want VersionError", err)
	}
}

func TestHeaderTruncated(t *testing.T) {
	for _, n := range []int{0, 1, HeaderSize - 1} {
		if _, err := NewReader(bytes.NewReader(header(TickHzNanos)[:n])); !errors.Is(err, ErrTruncated) {
			t.Errorf("%d-byte stream: err = %v, want ErrTruncated", n, err)
		}
	}
}

func TestReaderRejectsZeroTickRate(t *testing.T) {
	if _, err := NewReader(bytes.NewReader(header(0))); err == nil {
		t.Fatal("zero tick rate accepted")
	}
}

func TestEntryRoundTrip(t *testing.T) {
	in := Entry{Tick: -5, Kind: KindDrop, Prio: 3, Aux: 77, A: 1, B: 2, C: 3, Depth: 1 << 40}
	if got := UnmarshalEntry(rawEntry(in)); got != in {
		t.Fatalf("round trip: %+v != %+v", got, in)
	}
}

// TestTruncatedEntryTail: a stream that ends mid-entry (crashed writer)
// yields everything before the tear, counts it, and flags truncation.
func TestTruncatedEntryTail(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(header(TickHzNanos))
	buf.Write(rawEntry(Entry{Tick: 1, Kind: KindPause, Prio: 1}))
	buf.Write(rawEntry(Entry{Tick: 2, Kind: KindResume, Prio: 1})[:EntrySize-5])

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := r.Next()
	if err != nil || ev.Kind != "pause" {
		t.Fatalf("first event = %+v, %v", ev, err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("tail err = %v, want io.EOF", err)
	}
	if !r.Truncated() || r.Skipped() != 1 {
		t.Errorf("truncated=%v skipped=%d, want true/1", r.Truncated(), r.Skipped())
	}
}

// TestTickRateRescaling: a microsecond-tick producer reads back in
// nanoseconds.
func TestTickRateRescaling(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(header(1e6))
	buf.Write(rawEntry(Entry{Tick: 1500, Kind: KindPause}))
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev.T != 1500*1000 {
		t.Fatalf("T = %d, want %d", ev.T, 1500*1000)
	}
}

// TestReaderSkipsGarbageKinds: unknown kinds and orphaned cycle edges
// cost one entry each, never the stream.
func TestReaderSkipsGarbageKinds(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(header(TickHzNanos))
	buf.Write(rawEntry(Entry{Tick: 1, Kind: Kind(200)}))           // unknown
	buf.Write(rawEntry(Entry{Tick: 2, Kind: KindCycleEdge, C: 9})) // orphan
	buf.Write(rawEntry(Entry{Tick: 3, Kind: KindDemote, A: 0, B: 0}))

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := r.Next()
	if err != nil || ev.Kind != "demote" || ev.T != 3 {
		t.Fatalf("event = %+v, %v", ev, err)
	}
	if r.Skipped() != 2 {
		t.Errorf("skipped = %d, want 2", r.Skipped())
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

// TestUndefinedStringRendersPlaceholder: a reference whose definition
// record was dropped decodes as "?" instead of failing the stream.
func TestUndefinedStringRendersPlaceholder(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(header(TickHzNanos))
	buf.Write(rawEntry(Entry{Tick: 1, Kind: KindPause, A: 42, B: 43, Prio: 2}))
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Node != "?" || ev.Peer != "?" {
		t.Fatalf("event = %+v, want ? placeholders", ev)
	}
}

// TestStrDefTruncatedPayload: a tear inside a definition's payload ends
// the stream cleanly.
func TestStrDefTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(header(TickHzNanos))
	buf.Write(rawEntry(Entry{Kind: KindStrDef, A: 1, Aux: 40})) // needs 2 slots
	buf.Write(bytes.Repeat([]byte{'x'}, EntrySize))             // only 1 present
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
	if !r.Truncated() {
		t.Error("truncation not flagged")
	}
}
