package trace

import (
	"bufio"
	"io"
	"time"
)

// Config is a Writer's configuration. Both fields are ignored: a Writer
// encodes in the caller's goroutine into one fixed 64 KiB buffer, so
// there is no ring to size and no drain to pace. They remain only so
// existing callers compile; pass the zero Config.
type Config struct {
	RingSize      int
	FlushInterval time.Duration
}

// maxStrLen caps a string definition at what Aux can carry.
const maxStrLen = 1<<16 - 1

// strTable is a TGL1 producer's string table: IDs are dense from 1 (0
// is the empty string), keyed by the whole string, and each definition
// carries the string's first maxStrLen bytes.
type strTable struct {
	ids  map[string]uint32
	defs []string // defs[i] is the definition behind ID i+1
}

func newStrTable() strTable { return strTable{ids: make(map[string]uint32)} }

// intern returns s's ID; fresh reports first sight, whose definition
// is then the last of defs.
func (t *strTable) intern(s string) (id uint32, fresh bool) {
	if s == "" {
		return 0, false
	}
	if id, ok := t.ids[s]; ok {
		return id, false
	}
	id = uint32(len(t.defs) + 1)
	t.ids[s] = id
	t.defs = append(t.defs, s[:min(len(s), maxStrLen)])
	return id, true
}

// encoder serializes TGL1 through a 64 KiB buffer in front of a sink:
// the header, string definitions and entries. The buffer's first write
// error is sticky, so once the sink fails every later write reports it.
type encoder struct {
	bw *bufio.Writer
	eb [EntrySize]byte
}

var zeroSlot [EntrySize]byte

// newEncoder buffers the file header for w.
func newEncoder(w io.Writer) *encoder {
	c := &encoder{bw: bufio.NewWriterSize(w, 1<<16)}
	var hb [HeaderSize]byte
	marshalHeader(&hb, TickHzNanos)
	c.bw.Write(hb[:]) // lands in the empty buffer: cannot fail
	return c
}

// entry writes one 32-byte entry.
func (c *encoder) entry(e Entry) error {
	e.marshal(&c.eb)
	_, err := c.bw.Write(c.eb[:])
	return err
}

// strdef writes a KindStrDef entry and its payload: s padded to whole
// slots. The last write reports any failure, the error being sticky.
func (c *encoder) strdef(id uint32, s string) error {
	c.entry(Entry{Kind: KindStrDef, A: id, Aux: uint16(len(s))})
	c.bw.WriteString(s)
	_, err := c.bw.Write(zeroSlot[:strDefSlots(len(s))*EntrySize-len(s)])
	return err
}

// Writer streams fixed-width entries to an io.Writer. Emit and Intern
// encode in the caller's goroutine into a 64 KiB buffer that is written
// to the sink when it fills and at Close; they are allocation-free in
// steady state (a first-seen string allocates once for its table
// entry). A record is lost only once the sink has failed: from the
// failing write on, every record is discarded and counted, and Close
// reports the error. A Writer serves a single goroutine.
type Writer struct {
	enc     *encoder
	strs    strTable
	dropped int64
}

// NewWriter buffers the file header for w; the Config is ignored.
// Callers must Close.
func NewWriter(w io.Writer, _ Config) (*Writer, error) {
	return &Writer{enc: newEncoder(w), strs: newStrTable()}, nil
}

// Intern returns the stable ID for s, assigning one and emitting its
// definition record on first sight. The empty string is ID 0 and never
// emitted.
func (w *Writer) Intern(s string) uint32 {
	id, fresh := w.strs.intern(s)
	if fresh && w.enc.strdef(id, w.strs.defs[id-1]) != nil {
		w.dropped++
	}
	return id
}

// Emit captures one entry.
func (w *Writer) Emit(e Entry) {
	if w.enc.entry(e) != nil {
		w.dropped++
	}
}

// Dropped returns how many records were discarded after a sink write
// error.
func (w *Writer) Dropped() int64 { return w.dropped }

// Close flushes the buffer and returns the first sink error, if any.
// The Writer must not be used afterwards.
func (w *Writer) Close() error { return w.enc.bw.Flush() }
