package trace

import (
	"bufio"
	"fmt"
	"io"
)

// Reader streams normalized events out of a binary trace. It validates
// the header eagerly and decodes entries lazily, holding only the
// string table in memory, so a multi-gigabyte trace reads in constant
// space.
//
// Damage tolerance mirrors the JSONL path: entries with an unknown kind
// and orphaned structural records are skipped and counted, a reference
// to a never-defined string ID resolves to "?", and a stream that ends
// mid-entry reports io.EOF with Truncated() set — analysis always gets
// whatever survived.
type Reader struct {
	br  *bufio.Reader
	hdr Header

	strs map[uint32]string

	pending   Entry // pushed-back entry (deadlock assembly overshoot)
	hasPend   bool
	skipped   int64
	alien     int64
	truncated bool

	// snap accumulates flight-recorder snapshot records (snapshot.go).
	snap *Snapshot

	buf [EntrySize]byte
}

// NewReader validates the stream header. ErrBadMagic, ErrEndianSwapped,
// *VersionError and ErrTruncated identify the ways a header can be
// unusable.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hb [HeaderSize]byte
	if _, err := io.ReadFull(br, hb[:]); err != nil {
		return nil, fmt.Errorf("%w: %d-byte header unreadable", ErrTruncated, HeaderSize)
	}
	hdr, err := unmarshalHeader(hb[:])
	if err != nil {
		return nil, err
	}
	if hdr.TickHz == 0 {
		return nil, fmt.Errorf("trace: header declares a zero tick rate")
	}
	return &Reader{br: br, hdr: hdr, strs: make(map[uint32]string)}, nil
}

// Skipped counts undecodable entries passed over so far.
func (r *Reader) Skipped() int64 { return r.skipped }

// AlienKinds counts skipped entries whose kind this reader does not
// speak — the subset of Skipped that suggests the trace came from a
// newer producer rather than from damage.
func (r *Reader) AlienKinds() int64 { return r.alien }

// Truncated reports whether the stream ended inside a record.
func (r *Reader) Truncated() bool { return r.truncated }

// entry returns the next raw entry, honoring the one-slot pushback.
func (r *Reader) entry() (Entry, error) {
	if r.hasPend {
		r.hasPend = false
		return r.pending, nil
	}
	if _, err := io.ReadFull(r.br, r.buf[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			r.skipped++
			r.truncated = true
			err = io.EOF
		}
		return Entry{}, err
	}
	return UnmarshalEntry(r.buf[:]), nil
}

func (r *Reader) pushback(e Entry) {
	r.pending, r.hasPend = e, true
}

// str resolves an interned ID; a definition lost to a failed sink (or
// corruption) renders as "?".
func (r *Reader) str(id uint32) string {
	if id == 0 {
		return ""
	}
	if s, ok := r.strs[id]; ok {
		return s
	}
	return "?"
}

// nanos rescales a tick to nanoseconds per the header's tick rate.
func (r *Reader) nanos(tick int64) int64 {
	if r.hdr.TickHz == TickHzNanos {
		return tick
	}
	hz := int64(r.hdr.TickHz)
	return tick/hz*1e9 + tick%hz*1e9/hz
}

// Next returns the next event, or io.EOF at end of stream. Structural
// records (string definitions, cycle edges) are folded in and never
// surfaced.
func (r *Reader) Next() (Event, error) {
	for {
		e, err := r.entry()
		if err != nil {
			return Event{}, err
		}
		switch e.Kind {
		case KindStrDef:
			if err := r.readStrDef(e); err != nil {
				return Event{}, err
			}
		case KindPause, KindResume:
			return Event{
				T: r.nanos(e.Tick), Kind: e.Kind.String(),
				Node: r.str(e.A), Peer: r.str(e.B),
				Prio: int(e.Prio), Depth: e.Depth,
			}, nil
		case KindDrop:
			return Event{
				T: r.nanos(e.Tick), Kind: e.Kind.String(),
				Node: r.str(e.A), Flow: r.str(e.B), Reason: r.str(e.C),
			}, nil
		case KindDemote:
			return Event{
				T: r.nanos(e.Tick), Kind: e.Kind.String(),
				Node: r.str(e.A), Flow: r.str(e.B),
			}, nil
		case KindDetect:
			return Event{
				T: r.nanos(e.Tick), Kind: e.Kind.String(),
				Node: r.str(e.A), Peer: r.str(e.B), Reason: r.str(e.C),
				Prio: int(e.Prio),
			}, nil
		case KindMitigate:
			return Event{
				T: r.nanos(e.Tick), Kind: e.Kind.String(),
				Node: r.str(e.A), Reason: r.str(e.C),
				Prio: int(e.Prio), Depth: e.Depth,
			}, nil
		case KindDeadlock:
			return r.readDeadlock(e)
		case KindSnapStart, KindWaitQueue, KindWaitEdge, KindQueueState,
			KindRuleDef, KindRuleMatch, KindDetTag, KindSnapEnd:
			r.foldSnap(e)
		default:
			// Unknown kinds and orphaned cycle edges: skip, count, go on.
			if e.Kind >= kindMax {
				r.alien++
			}
			r.skipped++
		}
	}
}

// readStrDef consumes a definition's payload slots and installs the
// string. Redefinition of a live ID (corruption) keeps the first
// binding and counts the attempt.
func (r *Reader) readStrDef(e Entry) error {
	n := strDefSlots(int(e.Aux))
	payload := make([]byte, n*EntrySize)
	if _, err := io.ReadFull(r.br, payload); err != nil {
		r.skipped++
		r.truncated = true
		return io.EOF
	}
	if e.A == 0 {
		r.skipped++
		return nil
	}
	if _, dup := r.strs[e.A]; dup {
		r.skipped++
		return nil
	}
	r.strs[e.A] = string(payload[:e.Aux])
	return nil
}

// readDeadlock assembles an onset and its following cycle edges. A
// cycle cut short by truncation or drops yields the edges that made it.
func (r *Reader) readDeadlock(e Entry) (Event, error) {
	cycle := make([]string, 0, e.Aux)
	for len(cycle) < int(e.Aux) {
		ce, err := r.entry()
		if err != nil {
			break
		}
		if ce.Kind != KindCycleEdge {
			r.pushback(ce)
			break
		}
		cycle = append(cycle, r.str(ce.C))
	}
	ev := Event{T: r.nanos(e.Tick), Kind: "deadlock", Node: r.str(e.A)}
	if len(cycle) > 0 {
		ev.Cycle = cycle
	}
	return ev, nil
}
