package pipeline

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/trace"
)

// Format names an ingest format.
const (
	FormatAuto   = "auto"
	FormatBinary = "binary"
	FormatJSONL  = "jsonl"
)

// Open builds the ingest source for r. FormatAuto sniffs the stream:
// the binary magic selects the binary decoder, anything else is
// treated as JSONL (whose first byte can never match the magic).
func Open(r io.Reader, format string) (Source, error) {
	switch format {
	case FormatBinary:
		return NewBinarySource(r)
	case FormatJSONL:
		return NewJSONLSource(r), nil
	case FormatAuto, "":
		br := bufio.NewReaderSize(r, 1<<16)
		head, err := br.Peek(4)
		if err == nil && binary.LittleEndian.Uint32(head) == trace.Magic {
			return NewBinarySource(br)
		}
		return NewJSONLSource(br), nil
	}
	return nil, fmt.Errorf("unknown trace format %q (want auto, binary or jsonl)", format)
}

// JSONLSource ingests the legacy line-oriented format. Malformed or
// truncated lines are skipped and counted, never fatal: one bad line
// costs one event, not the analysis.
type JSONLSource struct {
	sc      *bufio.Scanner
	skipped int64
	err     error
	done    bool
}

// NewJSONLSource wraps r; lines up to 16 MB are accepted (deadlock
// cycles can be long).
func NewJSONLSource(r io.Reader) *JSONLSource {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return &JSONLSource{sc: sc}
}

// Next implements Source.
func (s *JSONLSource) Next(buf []trace.Event) ([]trace.Event, error) {
	if s.done {
		return buf, s.eof()
	}
	for len(buf) < cap(buf) {
		if !s.sc.Scan() {
			s.done = true
			s.err = s.sc.Err()
			return buf, s.eof()
		}
		line := bytes.TrimSpace(s.sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev trace.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			s.skipped++
			continue
		}
		buf = append(buf, ev)
	}
	return buf, nil
}

func (s *JSONLSource) eof() error {
	if s.err != nil {
		return s.err
	}
	return io.EOF
}

// Skipped implements Source.
func (s *JSONLSource) Skipped() int64 { return s.skipped }

// BinarySource ingests the fixed-width binary format via trace.Reader,
// inheriting its damage tolerance: unknown kinds and orphaned records
// are skipped and counted, truncation ends the stream cleanly.
type BinarySource struct {
	r    *trace.Reader
	done bool
}

// NewBinarySource validates the header eagerly so format errors (bad
// magic, endian-swapped producer, future version) surface before any
// stage runs.
func NewBinarySource(r io.Reader) (*BinarySource, error) {
	tr, err := trace.NewReader(r)
	if err != nil {
		return nil, err
	}
	return &BinarySource{r: tr}, nil
}

// Next implements Source.
func (s *BinarySource) Next(buf []trace.Event) ([]trace.Event, error) {
	if s.done {
		return buf, io.EOF
	}
	for len(buf) < cap(buf) {
		ev, err := s.r.Next()
		if err == io.EOF {
			s.done = true
			return buf, io.EOF
		}
		if err != nil {
			s.done = true
			return buf, err
		}
		buf = append(buf, ev)
	}
	return buf, nil
}

// Skipped implements Source (undecodable entries plus a truncated
// tail).
func (s *BinarySource) Skipped() int64 { return s.r.Skipped() }

// Truncated reports whether the binary stream ended mid-record.
func (s *BinarySource) Truncated() bool { return s.r.Truncated() }

// Alien counts skipped entries whose kind this reader does not speak —
// evidence of a newer producer rather than damage.
func (s *BinarySource) Alien() int64 { return s.r.AlienKinds() }

// Snapshot exposes the flight-recorder snapshot folded out of the
// stream, nil if the trace carried none. Only meaningful after the
// source reports io.EOF (snapshot records trail the event window).
func (s *BinarySource) Snapshot() *trace.Snapshot { return s.r.Snapshot() }
