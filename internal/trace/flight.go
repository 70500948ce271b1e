package trace

import "io"

// Recorder is the flight recorder's in-memory ring: a fixed number of
// 32-byte entry slots that the producer overwrites oldest-first, so the
// last K microseconds of events are always on hand for an incident dump
// while steady-state cost stays at one slice store per record — no
// goroutine, no allocation.
//
// Unlike a Writer, which streams every record to its sink, the flight
// ring has no consumer until a trigger fires and keeps only the newest
// records, shedding the oldest (exactly what a post-mortem wants).
// Overwrites counts the shed entries.
//
// Interned strings live outside the ring, in the same string table a
// Writer keeps: definitions are never overwritten, so every surviving
// entry still resolves after the ring has lapped many times. Dump emits
// the whole table up front through the Writer's encoder.
//
// A Recorder is single-goroutine, like the simulator it instruments.
type Recorder struct {
	slots []Entry
	mask  uint64
	head  uint64 // total records ever written

	strs strTable
}

// NewRecorder sizes a ring of at least the given slot count (rounded up
// to a power of two, minimum 64).
func NewRecorder(slots int) *Recorder {
	n := 64
	for n < slots {
		n <<= 1
	}
	return &Recorder{
		slots: make([]Entry, n),
		mask:  uint64(n - 1),
		strs:  newStrTable(),
	}
}

// Intern returns the stable ID for s (0 for the empty string),
// assigning one on first sight. Later calls for a known string are
// allocation-free.
func (r *Recorder) Intern(s string) uint32 {
	id, _ := r.strs.intern(s)
	return id
}

// Record stores one entry, overwriting the oldest once the ring is
// full. This is the steady-state hot path: a store and an increment.
func (r *Recorder) Record(e Entry) {
	r.slots[r.head&r.mask] = e
	r.head++
}

// Len returns how many entries the ring currently holds.
func (r *Recorder) Len() int {
	if r.head < uint64(len(r.slots)) {
		return int(r.head)
	}
	return len(r.slots)
}

// Overwrites returns how many entries have been shed to make room.
func (r *Recorder) Overwrites() int64 {
	if r.head <= uint64(len(r.slots)) {
		return 0
	}
	return int64(r.head - uint64(len(r.slots)))
}

// Dump writes a self-contained trace: header, the full string table,
// every surviving ring entry (oldest first), then the snapshot entries.
// The ring is not consumed — recording can continue and Dump can run
// again. A multi-slot deadlock record whose onset was overwritten
// leaves orphaned cycle edges at the window head; the reader
// skip-and-counts those by contract.
func (r *Recorder) Dump(w io.Writer, snapshot []Entry) error {
	c := newEncoder(w)
	for i, s := range r.strs.defs {
		c.strdef(uint32(i+1), s)
	}
	for i := r.head - uint64(r.Len()); i < r.head; i++ {
		c.entry(r.slots[i&r.mask])
	}
	for _, e := range snapshot {
		c.entry(e)
	}
	return c.bw.Flush() // the buffer's error is sticky
}
