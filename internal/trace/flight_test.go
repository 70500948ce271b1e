package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// dumpAll drains a reader, returning the events and final error.
func dumpAll(t *testing.T, r *Reader) []Event {
	t.Helper()
	var evs []Event
	for {
		ev, err := r.Next()
		if err == io.EOF {
			return evs
		}
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
}

// TestRecorderRoundTrip: events recorded through the flight ring, plus
// a snapshot, decode back intact — including strings interned long
// before the dump.
func TestRecorderRoundTrip(t *testing.T) {
	rec := NewRecorder(64)
	a, b := rec.Intern("T0"), rec.Intern("T1")
	flow, hr := rec.Intern("f0"), rec.Intern("headroom")
	rec.Record(Entry{Tick: 10, Kind: KindPause, Prio: 1, A: a, B: b, Depth: 96})
	rec.Record(Entry{Tick: 20, Kind: KindDrop, A: b, B: flow, C: hr})

	trig := rec.Intern("deadlock-onset")
	snap := []Entry{
		SnapStartEntry(25, a, trig),
		WaitQueueEntry(0, a, b, 1, 4096, 4),
		WaitQueueEntry(1, b, a, 1, 2048, 2),
		WaitEdgeEntry(0, 1),
		WaitEdgeEntry(1, 0),
		QueueStateEntry(a, b, 1, QFlagPausedByPeer|QFlagTxBusy, 512, 4096),
		RuleDefEntry(3, rec.Intern("tag 1 in2 out4 => 1")),
		RuleMatchEntry(a, flow, b, 1, 3, 4096),
		DetTagEntry(a, b, 2, 1, 0x8000_0001_0002_0011, DetFlagOrigin),
	}
	snap = append(snap, SnapEndEntry(25, rec.Overwrites(), len(snap)+1))

	var buf bytes.Buffer
	if err := rec.Dump(&buf, snap); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	evs := dumpAll(t, r)
	if len(evs) != 2 || evs[0].Kind != "pause" || evs[0].Node != "T0" ||
		evs[1].Kind != "drop" || evs[1].Reason != "headroom" {
		t.Fatalf("events = %+v", evs)
	}
	if r.Skipped() != 0 || r.Truncated() {
		t.Fatalf("skipped=%d truncated=%v", r.Skipped(), r.Truncated())
	}
	s := r.Snapshot()
	if s == nil {
		t.Fatal("no snapshot decoded")
	}
	if !s.Complete || s.Trigger != "deadlock-onset" || s.Node != "T0" || s.Tick != 25 {
		t.Fatalf("snapshot = %+v", s)
	}
	if len(s.WaitQueues) != 2 || s.WaitQueues[1].Peer != "T0" || s.WaitQueues[0].Bytes != 4096 {
		t.Fatalf("wait queues = %+v", s.WaitQueues)
	}
	if len(s.WaitEdges) != 2 || s.WaitEdges[0] != [2]int{0, 1} {
		t.Fatalf("wait edges = %+v", s.WaitEdges)
	}
	if len(s.Queues) != 1 || s.Queues[0].Flags != QFlagPausedByPeer|QFlagTxBusy ||
		s.Queues[0].IngressBytes != 512 || s.Queues[0].EgressBytes != 4096 {
		t.Fatalf("queues = %+v", s.Queues)
	}
	if len(s.RuleDefs) != 1 || s.RuleDefs[0] != (SnapRuleDef{ID: 3, Desc: "tag 1 in2 out4 => 1"}) {
		t.Fatalf("rule defs = %+v", s.RuleDefs)
	}
	if len(s.RuleMatches) != 1 || s.RuleMatches[0].RuleID != 3 || s.RuleMatches[0].Flow != "f0" {
		t.Fatalf("rule matches = %+v", s.RuleMatches)
	}
	dt := s.DetTags
	if len(dt) != 1 || dt[0].Tag != 0x8000_0001_0002_0011 || !dt[0].Origin || dt[0].Carry || dt[0].Port != 2 {
		t.Fatalf("det tags = %+v", dt)
	}
	if s.Records != 10 || s.Overwrites != 0 {
		t.Fatalf("records=%d overwrites=%d", s.Records, s.Overwrites)
	}
}

// TestRecorderOverwrite: a lapped ring keeps the newest entries, counts
// the shed ones, and still resolves strings interned before the lap.
func TestRecorderOverwrite(t *testing.T) {
	rec := NewRecorder(64)
	node := rec.Intern("sw-early") // defined before the ring laps
	for i := 0; i < 200; i++ {
		rec.Record(Entry{Tick: int64(i), Kind: KindPause, Prio: 1, A: node})
	}
	if rec.Len() != 64 {
		t.Fatalf("len = %d, want 64", rec.Len())
	}
	if rec.Overwrites() != 200-64 {
		t.Fatalf("overwrites = %d, want %d", rec.Overwrites(), 200-64)
	}
	var buf bytes.Buffer
	if err := rec.Dump(&buf, nil); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	evs := dumpAll(t, r)
	if len(evs) != 64 || evs[0].T != 200-64 || evs[63].T != 199 {
		t.Fatalf("window = %d events, [%d..%d]", len(evs), evs[0].T, evs[len(evs)-1].T)
	}
	if evs[0].Node != "sw-early" {
		t.Fatalf("node = %q: string table lost to the lap", evs[0].Node)
	}
}

// TestRecorderZeroAllocRecordPath gates the recorder's steady-state
// cost: recording an event whose strings are already interned must not
// allocate.
func TestRecorderZeroAllocRecordPath(t *testing.T) {
	rec := NewRecorder(1 << 10)
	node, peer := rec.Intern("sw0"), rec.Intern("sw1")
	e := Entry{Tick: 1, Kind: KindPause, Prio: 1, A: node, B: peer, Depth: 4096}
	if avg := testing.AllocsPerRun(1000, func() {
		e.A, e.B = rec.Intern("sw0"), rec.Intern("sw1")
		rec.Record(e)
	}); avg != 0 {
		t.Fatalf("allocs/record = %v, want 0", avg)
	}
	_ = node
}

// TestReaderEmptyFile: an empty stream cannot even produce a header —
// ErrTruncated, not a silent success. (Satellite: reader edge cases.)
func TestReaderEmptyFile(t *testing.T) {
	if _, err := NewReader(bytes.NewReader(nil)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

// TestReaderHeaderOnlyFile: a header with zero entries is a valid,
// empty trace — io.EOF with nothing skipped and no truncation.
func TestReaderHeaderOnlyFile(t *testing.T) {
	r, err := NewReader(bytes.NewReader(header(TickHzNanos)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
	if r.Truncated() || r.Skipped() != 0 {
		t.Fatalf("truncated=%v skipped=%d, want clean EOF", r.Truncated(), r.Skipped())
	}
}

// TestReaderSnapshotTruncatedMidEntry: a capture torn inside a snapshot
// record must surface via Truncated(), not read as a complete incident.
func TestReaderSnapshotTruncatedMidEntry(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(header(TickHzNanos))
	buf.Write(rawEntry(SnapStartEntry(5, 0, 0)))
	buf.Write(rawEntry(WaitQueueEntry(0, 0, 0, 1, 4096, 4))[:EntrySize-7])

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
	if !r.Truncated() || r.Skipped() != 1 {
		t.Fatalf("truncated=%v skipped=%d, want true/1", r.Truncated(), r.Skipped())
	}
	s := r.Snapshot()
	if s == nil || s.Complete {
		t.Fatalf("snapshot = %+v, want partial (no SnapEnd)", s)
	}
}

// TestReaderOrphanSnapshotRecords: snapshot records with no preceding
// SnapStart (head of the section lost) are skipped and counted.
func TestReaderOrphanSnapshotRecords(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(header(TickHzNanos))
	buf.Write(rawEntry(WaitQueueEntry(0, 0, 0, 1, 64, 1)))
	buf.Write(rawEntry(SnapEndEntry(9, 0, 2)))
	buf.Write(rawEntry(Entry{Tick: 9, Kind: KindPause, Prio: 1}))

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	evs := dumpAll(t, r)
	if len(evs) != 1 || evs[0].Kind != "pause" {
		t.Fatalf("events = %+v", evs)
	}
	if r.Skipped() != 2 {
		t.Fatalf("skipped = %d, want 2", r.Skipped())
	}
	if r.Snapshot() != nil {
		t.Fatalf("snapshot = %+v, want nil", r.Snapshot())
	}
}

// TestReaderWaitQueueIndexGap: a wait-queue record whose index does not
// extend the vertex list densely (lost predecessor) is rejected rather
// than silently renumbered — edge indices must stay meaningful.
func TestReaderWaitQueueIndexGap(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(header(TickHzNanos))
	buf.Write(rawEntry(SnapStartEntry(5, 0, 0)))
	buf.Write(rawEntry(WaitQueueEntry(1, 0, 0, 1, 64, 1))) // index 0 missing
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	dumpAll(t, r)
	if r.Skipped() != 1 || len(r.Snapshot().WaitQueues) != 0 {
		t.Fatalf("skipped=%d queues=%+v", r.Skipped(), r.Snapshot().WaitQueues)
	}
}
