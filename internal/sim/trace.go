package sim

import (
	"io"

	"repro/internal/topology"
	"repro/internal/trace"
)

// TraceEvent is one line of the simulator's structured event log.
type TraceEvent struct {
	// T is the simulation time in nanoseconds.
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
	// mitigate events ("drop", "demote").
	Reason string `json:"reason,omitempty"`
	// Cycle carries the pause-wait cycle for deadlock events.
	Cycle []string `json:"cycle,omitempty"`
}

// Tracer receives simulator events as they happen. Implementations must
// be fast; they run inline with the event loop.
type Tracer interface {
	Trace(ev TraceEvent)
}

// encodeEvent is the one TraceEvent -> TGL1 entry encoding, shared by
// the BinaryTracer's writer and the FlightRecorder's overwriting ring:
// node, peer, flow and reason strings go through intern (each one's own
// string table), everything else is fixed-width. A deadlock event
// yields only its onset entry (Aux = cycle length); the caller appends
// one KindCycleEdge entry per ev.Cycle edge. ok is false for a kind the
// wire format does not carry.
func encodeEvent(ev *TraceEvent, intern func(string) uint32) (e trace.Entry, ok bool) {
	e = trace.Entry{Tick: ev.T, A: intern(ev.Node)}
	switch ev.Kind {
	case "pause", "resume":
		e.Kind = trace.KindResume
		if ev.Kind == "pause" {
			e.Kind = trace.KindPause
		}
		e.Prio, e.B, e.Depth = uint8(ev.Prio), intern(ev.Peer), ev.Depth
	case "drop":
		e.Kind, e.B, e.C = trace.KindDrop, intern(ev.Flow), intern(ev.Reason)
	case "demote":
		e.Kind, e.B = trace.KindDemote, intern(ev.Flow)
	case "detect":
		e.Kind, e.Prio, e.B, e.C = trace.KindDetect, uint8(ev.Prio), intern(ev.Peer), intern(ev.Reason)
	case "mitigate":
		e.Kind, e.Prio, e.C, e.Depth = trace.KindMitigate, uint8(ev.Prio), intern(ev.Reason), ev.Depth
	case "deadlock":
		e.Kind, e.Aux = trace.KindDeadlock, uint16(len(ev.Cycle))
	default:
		return e, false
	}
	return e, true
}

// BinaryTracer captures events in the internal/trace binary format:
// each event is encoded in the simulator's goroutine into a buffered
// trace.Writer. Steady-state capture is a few stores and a buffer copy
// — nanoseconds and zero heap allocations per event
// (TestBinaryTracerZeroAlloc gates this) — so it serves long soaks as
// well as figure runs; `taggertrace -o jsonl` exports a capture as
// JSON lines.
//
// Callers must Close to flush the buffer; Dropped reports records lost
// after a sink write error.
type BinaryTracer struct {
	w *trace.Writer
}

// NewBinaryTracer starts a binary capture writing to w. cfg is ignored
// (see trace.Config); ticks are nanoseconds.
func NewBinaryTracer(w io.Writer, cfg trace.Config) (*BinaryTracer, error) {
	tw, err := trace.NewWriter(w, cfg)
	if err != nil {
		return nil, err
	}
	return &BinaryTracer{w: tw}, nil
}

// Trace implements Tracer. Node, peer, flow, reason and cycle-edge
// strings are interned on first sight; every later event referencing
// them is allocation-free.
func (t *BinaryTracer) Trace(ev TraceEvent) {
	e, ok := encodeEvent(&ev, t.w.Intern)
	if !ok {
		return
	}
	// Cycle edges are defined before the onset, so the onset and its
	// edges stay adjacent in the stream.
	for _, edge := range ev.Cycle {
		t.w.Intern(edge)
	}
	t.w.Emit(e)
	for _, edge := range ev.Cycle {
		t.w.Emit(trace.Entry{Tick: ev.T, Kind: trace.KindCycleEdge, C: t.w.Intern(edge)})
	}
}

// Dropped reports records lost after a sink write error.
func (t *BinaryTracer) Dropped() int64 { return t.w.Dropped() }

// Close flushes the capture and returns the first sink error; it must
// be called before the trace file is read.
func (t *BinaryTracer) Close() error { return t.w.Close() }

// CountingTracer tallies events by kind — the cheap always-on option.
type CountingTracer struct {
	Counts map[string]int64
}

// Trace implements Tracer.
func (t *CountingTracer) Trace(ev TraceEvent) {
	if t.Counts == nil {
		t.Counts = make(map[string]int64)
	}
	t.Counts[ev.Kind]++
}

// SetTracer installs an event tracer (nil disables). The tracer sees
// PFC pause/resume emissions, every packet drop with its cause, lossless
// to lossy demotions, and deadlock onsets (the first detection after any
// deadlock-free period, checked lazily at pause emissions to stay cheap).
func (n *Network) SetTracer(tr Tracer) { n.tracer = tr }

func (n *Network) trace(ev TraceEvent) {
	if n.tracer == nil {
		return
	}
	ev.T = n.now
	n.tracer.Trace(ev)
}

func (n *Network) nodeName(id topology.NodeID) string { return n.g.Node(id).Name }
