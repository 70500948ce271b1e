// Package trace is the simulator's binary event-trace format and its
// capture machinery: fixed-width little-endian entries encoded in the
// producer's goroutine through one buffered Writer (writer.go) or kept
// in the flight recorder's overwriting ring (flight.go), and decoded
// back into normalized events by a streaming reader (reader.go).
//
// The format exists because per-event encoding/json costs microseconds
// and megabytes of allocation, which caps how long a soak can record.
// Binary capture is a handful of stores and a buffer copy per event —
// nanoseconds and zero heap allocations in steady state — so tracing a
// multi-second soak of a large fabric is routine.
//
// # File layout
//
// A trace file is a 16-byte header followed by a stream of 32-byte
// entries, all little-endian:
//
//	header:  magic uint32 | version uint32 | tickHz uint64
//	entry:   tick int64 | kind uint8 | prio uint8 | aux uint16 |
//	         a uint32 | b uint32 | c uint32 | depth int64
//
// magic is 0x54474c31 ("TGL1" read as a little-endian uint32); a
// byte-swapped magic means the file was written on (or mangled by) a
// big-endian producer and is rejected with ErrEndianSwapped. tickHz is
// the number of ticks per second (the simulator writes 1e9: ticks are
// nanoseconds).
//
// String-valued fields (node, peer, flow, drop reason, deadlock cycle
// edges) are interned: the first occurrence emits a KindStrDef entry
// whose payload — the string bytes, padded to whole 32-byte slots —
// follows inline, and every reference carries the assigned uint32 ID.
// ID 0 is reserved for the empty string, and a definition carries at
// most 65 535 bytes (what aux can describe): a longer string is defined
// by that prefix. A deadlock onset is a
// KindDeadlock entry with aux = cycle length, followed by that many
// KindCycleEdge entries (field c = interned edge description).
//
// # Loss model
//
// A Writer loses nothing while its sink accepts writes, so a capture
// is a deterministic function of the event stream. From the first
// failed sink write on, every record is discarded and counted
// (Writer.Dropped), and Close returns the error. The reader still treats a reference to an
// undefined string ID as "?" rather than an error, and tolerates a
// cycle cut short: a flight-recorder dump can shed a cycle's onset to
// overwrite, and a failed or crashed capture can end anywhere — an
// analysis pipeline must survive a damaged trace the same way it
// survives a truncated one.
package trace

import (
	"errors"
	"fmt"
)

// Format constants.
const (
	// Magic identifies a binary trace file ("TGL1" little-endian).
	Magic uint32 = 0x314c4754
	// Version is the current format version.
	Version uint32 = 1
	// HeaderSize is the fixed file header length in bytes.
	HeaderSize = 16
	// EntrySize is the fixed entry length in bytes.
	EntrySize = 32
	// TickHzNanos is the tick rate written by the simulator: one tick
	// per nanosecond.
	TickHzNanos uint64 = 1e9
)

// Kind discriminates trace entries.
type Kind uint8

// Entry kinds. KindCycleEdge and KindStrDef are structural: the reader
// folds them into the deadlock and string-table state and never yields
// them as events.
const (
	KindInvalid Kind = iota
	KindPause
	KindResume
	KindDrop
	KindDemote
	KindDeadlock
	KindCycleEdge
	KindStrDef
	// KindDetect is an in-switch deadlock detection (a = node,
	// b = origin-ingress peer, c = transport medium, prio = priority).
	// Additive: the wire layout is unchanged, and readers that predate
	// it skip unknown kinds by contract, so Version stays 1.
	KindDetect
	// KindMitigate is a detector mitigation sweep (a = node, c = action,
	// prio = origin priority, depth = bytes swept).
	KindMitigate

	// Flight-recorder snapshot kinds (snapshot.go, flight.go): the state
	// a frozen recorder appends after the event window of an incident
	// capture. All are single 32-byte slots, so a reader that predates
	// them stays in sync while skip-and-counting them as alien kinds —
	// additive, Version stays 1. Like KindStrDef and KindCycleEdge they
	// are structural: the reader folds them into Reader.Snapshot and
	// never yields them as events.
	KindSnapStart
	KindWaitQueue
	KindWaitEdge
	KindQueueState
	KindRuleDef
	KindRuleMatch
	KindDetTag
	KindSnapEnd

	kindMax // one past the last valid kind
)

// kindNames maps kinds to the wire-format-independent names shared with
// the JSONL format.
var kindNames = [kindMax]string{
	KindPause:    "pause",
	KindResume:   "resume",
	KindDrop:     "drop",
	KindDemote:   "demote",
	KindDeadlock: "deadlock",
	KindDetect:   "detect",
	KindMitigate: "mitigate",
}

// String returns the event name ("pause", "drop", ...), or "" for
// structural and invalid kinds.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return ""
}

// KindOf maps an event name to its Kind; KindInvalid for unknown names.
func KindOf(name string) Kind {
	switch name {
	case "pause":
		return KindPause
	case "resume":
		return KindResume
	case "drop":
		return KindDrop
	case "demote":
		return KindDemote
	case "deadlock":
		return KindDeadlock
	case "detect":
		return KindDetect
	case "mitigate":
		return KindMitigate
	}
	return KindInvalid
}

// Event is one trace event, the common currency of the simulator
// (sim.TraceEvent is this type) and of the analysis pipeline.
type Event struct {
	// T is the event time in nanoseconds (ticks are rescaled on read if
	// the producer's tick rate differs).
	T int64 `json:"t"`
	// Kind is "pause", "resume", "drop", "deadlock", "demote", "detect"
	// (the in-switch detector saw its own tag return) or "mitigate" (its
	// mitigation hook swept the initiating packets).
	Kind string `json:"kind"`
	// Node names the switch where the event happened.
	Node string `json:"node"`
	// Peer names the other end for pause/resume.
	Peer string `json:"peer,omitempty"`
	// Prio is the PFC priority involved.
	Prio int `json:"prio,omitempty"`
	// Depth is the lossless ingress occupancy (bytes) at a PFC
	// transition — the queue depth that crossed XOFF (pause) or drained
	// below XON (resume).
	Depth int64 `json:"depth,omitempty"`
	// Flow names the flow for drop/demote events.
	Flow string `json:"flow,omitempty"`
	// Reason qualifies drops ("ttl", "lossy-overflow", "no-route",
	// "headroom", "reboot", "recovery-flush", "mitigate"), the transport
	// medium for detect events ("packet", "pause"), and the action for
	// mitigate events ("drop").
	Reason string `json:"reason,omitempty"`
	// Cycle carries the pause-wait cycle for deadlock events.
	Cycle []string `json:"cycle,omitempty"`
}

// Header is the decoded 16-byte file header.
type Header struct {
	Version uint32
	// TickHz is "1 second" expressed in ticks.
	TickHz uint64
}

// Decoding errors.
var (
	// ErrBadMagic means the stream does not start with a trace header.
	ErrBadMagic = errors.New("trace: bad magic (not a binary trace)")
	// ErrEndianSwapped means the magic appears byte-swapped: the file
	// was produced in the opposite byte order.
	ErrEndianSwapped = errors.New("trace: endian-swapped magic (big-endian trace not supported)")
	// ErrTruncated means the stream ended inside a header or entry.
	ErrTruncated = errors.New("trace: truncated stream")
)

// VersionError reports a header version this reader does not speak.
type VersionError struct{ Got uint32 }

func (e *VersionError) Error() string {
	return fmt.Sprintf("trace: unsupported format version %d (reader speaks <= %d)", e.Got, Version)
}
