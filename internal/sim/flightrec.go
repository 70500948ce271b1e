package sim

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"repro/internal/detect"
	"repro/internal/trace"
)

// Flight-recorder trigger names, written into each incident's snapshot.
const (
	// TriggerDeadlockOnset: the lazy global watchdog (pause-emission
	// piggyback) saw a wait-for cycle appear.
	TriggerDeadlockOnset = "deadlock-onset"
	// TriggerDetectorFire: the in-switch detector fired and the global
	// view confirms a live cycle.
	TriggerDetectorFire = "detector-fire"
	// TriggerFPOracle: the in-switch detector fired while the global
	// view saw no cycle — a false positive, captured with full state so
	// the discrepancy can be diagnosed post-mortem.
	TriggerFPOracle = "fp-oracle-discrepancy"
	// TriggerInvariant: a lossless packet dropped above Xoff+headroom —
	// the lossless invariant the chaos soaks gate on was violated.
	TriggerInvariant = "invariant-violation"
)

// FlightRecConfig tunes the incident flight recorder. The zero value is
// the always-on default: a 16384-slot ring (512 KiB), the whole ring as
// the dump window, a 1ms capture cooldown, at most 4 incidents.
type FlightRecConfig struct {
	// Slots is the ring capacity in 32-byte entries (rounded up to a
	// power of two; 0 selects 16384).
	Slots int
	// Window bounds how much event history a dump includes (sim time
	// before the trigger; 0: everything still in the ring).
	Window time.Duration
	// Cooldown is the minimum sim time between captures — a persistent
	// deadlock re-fires its detector every refresh, and one incident
	// per refresh would be noise. 0 selects 1ms.
	Cooldown time.Duration
	// MaxIncidents stops capturing after this many (0 selects 4);
	// further triggers count as dropped.
	MaxIncidents int
	// Sink, when set, receives each incident as it is captured (e.g. to
	// write the .tgl file). The first error is retained (SinkErr) and
	// does not stop later captures.
	Sink func(Incident) error
}

// Incident is one frozen capture: a self-contained binary trace (event
// window + state snapshot) plus its identifying metadata.
type Incident struct {
	// Seq is the 0-based capture order within the run.
	Seq int
	// Trigger is one of the Trigger* names; Node the switch whose event
	// tripped it.
	Trigger string
	Node    string
	// At is the sim time of the freeze.
	At time.Duration
	// Data is the complete .tgl incident file.
	Data []byte
}

// FlightRecorder is the always-on incident capture: it rides the tracer
// chain recording every event into a fixed overwriting ring (zero
// allocations in steady state), and on a trigger — deadlock onset,
// detector fire, FP-oracle discrepancy, lossless-invariant violation —
// freezes, appends a state snapshot (wait-for graph, queue states, live
// detector tags, matched TCAM rules for queued packets), and emits a
// self-contained .tgl incident.
type FlightRecorder struct {
	n     *Network
	rec   *trace.Recorder
	cfg   FlightRecConfig
	inner Tracer // pre-existing tracer, still fed

	incidents []Incident
	captured  int
	dropped   int64
	lastAt    int64
	sinkErr   error
}

// EnableFlightRecorder arms incident capture, wrapping any tracer
// already installed (install tracers first). Arming it also arms
// deadlock-onset detection on pause emission, exactly as attaching any
// tracer does.
func (n *Network) EnableFlightRecorder(cfg FlightRecConfig) *FlightRecorder {
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = time.Millisecond
	}
	if cfg.MaxIncidents <= 0 {
		cfg.MaxIncidents = 4
	}
	fr := &FlightRecorder{
		n:      n,
		rec:    trace.NewRecorder(cfg.Slots),
		cfg:    cfg,
		inner:  n.tracer,
		lastAt: -1 << 62,
	}
	n.tracer = fr
	n.flightrec = fr
	n.cls.drop() // entries now need their rule IDs resolved
	return fr
}

// Incidents returns the captured incidents in order.
func (fr *FlightRecorder) Incidents() []Incident { return fr.incidents }

// Captured returns how many incidents were captured.
func (fr *FlightRecorder) Captured() int { return fr.captured }

// DroppedTriggers returns triggers not captured (cooldown or the
// MaxIncidents cap).
func (fr *FlightRecorder) DroppedTriggers() int64 { return fr.dropped }

// Overwrites returns how many ring entries have been overwritten — the
// event history shed before the newest window.
func (fr *FlightRecorder) Overwrites() int64 { return fr.rec.Overwrites() }

// SinkErr returns the first error the configured Sink reported.
func (fr *FlightRecorder) SinkErr() error { return fr.sinkErr }

// Trace implements Tracer: record into the ring, feed the inner tracer,
// then classify for a trigger. The trigger event itself is recorded
// first, so it is the last entry of the incident's event window.
func (fr *FlightRecorder) Trace(ev TraceEvent) {
	fr.record(&ev)
	if fr.inner != nil {
		fr.inner.Trace(ev)
	}
	if trig := fr.trigger(&ev); trig != "" {
		fr.capture(trig, ev.Node)
	}
}

// record encodes ev into the flight ring with the tracers' shared
// encodeEvent; a deadlock onset is followed by its cycle edges as plain
// ring entries. Steady state (all strings seen before) is
// allocation-free, gated by TestFlightRecorderZeroAlloc.
func (fr *FlightRecorder) record(ev *TraceEvent) {
	e, ok := encodeEvent(ev, fr.rec.Intern)
	if !ok {
		return
	}
	fr.rec.Record(e)
	for _, edge := range ev.Cycle {
		fr.rec.Record(trace.Entry{Tick: ev.T, Kind: trace.KindCycleEdge, C: fr.rec.Intern(edge)})
	}
}

// trigger classifies an event as a capture cause ("" = none).
func (fr *FlightRecorder) trigger(ev *TraceEvent) string {
	switch ev.Kind {
	case "deadlock":
		return TriggerDeadlockOnset
	case "detect":
		// detHandle's oracle recomputed here keeps the recorder
		// independent of whether stats collection ran first.
		if fr.n.detectCycleQueues() == nil {
			return TriggerFPOracle
		}
		return TriggerDetectorFire
	case "drop":
		if ev.Reason == "headroom" {
			return TriggerInvariant
		}
	}
	return ""
}

// capture freezes the recorder: builds the state snapshot, dumps the
// self-contained incident, and hands it to the sink and telemetry.
func (fr *FlightRecorder) capture(trigger, node string) {
	n := fr.n
	if fr.captured >= fr.cfg.MaxIncidents || n.now-fr.lastAt < int64(fr.cfg.Cooldown) {
		fr.dropped++
		if n.tel != nil {
			n.tel.Counter("sim_flightrec_incidents_dropped_total").Inc()
		}
		return
	}
	snap := fr.buildSnapshot(trigger, node)
	from := int64(-1 << 62)
	if fr.cfg.Window > 0 {
		from = n.now - int64(fr.cfg.Window)
	}
	var buf bytes.Buffer
	if err := fr.rec.Dump(&buf, from, snap); err != nil {
		// bytes.Buffer writes cannot fail; belt and braces.
		if fr.sinkErr == nil {
			fr.sinkErr = err
		}
		return
	}
	inc := Incident{
		Seq: fr.captured, Trigger: trigger, Node: node,
		At: time.Duration(n.now), Data: buf.Bytes(),
	}
	fr.incidents = append(fr.incidents, inc)
	fr.captured++
	fr.lastAt = n.now
	if n.tel != nil {
		n.tel.Counter("sim_flightrec_incidents_total").Inc()
		n.tel.Gauge("sim_flightrec_ring_overwrites").Set(float64(fr.rec.Overwrites()))
	}
	if fr.cfg.Sink != nil {
		if err := fr.cfg.Sink(inc); err != nil && fr.sinkErr == nil {
			fr.sinkErr = err
		}
	}
}

// buildSnapshot serializes the frozen network state: the full wait-for
// graph, every non-idle queue pair, the TCAM rules behind the queued
// lossless packets, and the detector's live tag table. All iteration
// orders are deterministic, so the same seed captures a byte-identical
// incident at any parallelism.
func (fr *FlightRecorder) buildSnapshot(trigger, node string) []trace.Entry {
	n, r := fr.n, fr.rec
	out := make([]trace.Entry, 0, 64)
	out = append(out, trace.SnapStartEntry(n.now, r.Intern(node), r.Intern(trigger)))

	// Wait-for graph.
	wq, adj := n.waitGraph()
	for i, q := range wq {
		prt := &n.nodes[q.node].ports[q.port]
		f := &prt.egress[q.prio]
		out = append(out, trace.WaitQueueEntry(
			i, r.Intern(n.nodeName(n.nodes[q.node].id)), r.Intern(n.nodeName(prt.peer)),
			q.prio, f.bytes, f.len(),
		))
	}
	for from, tos := range adj {
		for _, to := range tos {
			out = append(out, trace.WaitEdgeEntry(from, to))
		}
	}

	// Per-queue occupancy and pause state (every non-idle lossless pair).
	for ni := range n.nodes {
		rt := &n.nodes[ni]
		for pi := range rt.ports {
			prt := &rt.ports[pi]
			for prio := 1; prio < n.nQueues; prio++ {
				var flags uint16
				if prt.paused.has(prio) {
					flags |= trace.QFlagPausedByPeer
				}
				if prt.pausedUpstream.has(prio) {
					flags |= trace.QFlagPausingUpstream
				}
				if prt.txBusy {
					flags |= trace.QFlagTxBusy
				}
				if flags == 0 && prt.egress[prio].bytes == 0 && prt.inBytes[prio] == 0 {
					continue
				}
				out = append(out, trace.QueueStateEntry(
					r.Intern(n.nodeName(rt.id)), r.Intern(n.nodeName(prt.peer)),
					prio, flags, prt.inBytes[prio], prt.egress[prio].bytes,
				))
			}
		}
	}

	// Flow and TCAM attribution: aggregate the queued lossless packets
	// (and the frame mid-serialization) by (node, egress port, priority,
	// flow, rule), in encounter order. Flows are attributed even with no
	// rule table installed — an unprotected arm's deadlock still names
	// its culprits, just via the default action.
	{
		type rmKey struct {
			node, port, prio int
			flow             string
			rule             int32
		}
		agg := map[rmKey]int64{}
		var order []rmKey
		add := func(ni, pi, prio int, pk *packet) {
			k := rmKey{ni, pi, prio, pk.flow.spec.Name, pk.rule}
			if _, seen := agg[k]; !seen {
				order = append(order, k)
			}
			agg[k] += int64(pk.size)
		}
		for ni := range n.nodes {
			rt := &n.nodes[ni]
			if rt.isHost {
				continue
			}
			for pi := range rt.ports {
				prt := &rt.ports[pi]
				for prio := 1; prio < n.nQueues; prio++ {
					for _, h := range prt.egress[prio].queued() {
						add(ni, pi, prio, &n.pkts.slots[h])
					}
				}
				if prt.txBusy {
					if pk := &n.pkts.slots[prt.txPkt]; pk.inPrio > 0 {
						add(ni, pi, n.prioOf(int(pk.tag)), pk)
					}
				}
			}
		}
		ruleSeen := map[int32]bool{}
		var ruleIDs []int32
		for _, k := range order {
			if k.rule > 0 && !ruleSeen[k.rule] {
				ruleSeen[k.rule] = true
				ruleIDs = append(ruleIDs, k.rule)
			}
		}
		sort.Slice(ruleIDs, func(i, j int) bool { return ruleIDs[i] < ruleIDs[j] })
		for _, rid := range ruleIDs {
			if n.rules == nil {
				break
			}
			rule, ok := n.rules.RuleByID(int(rid - 1))
			if !ok {
				continue
			}
			desc := fmt.Sprintf("%s: tag %d in%d out%d -> %d",
				n.nodeName(rule.Switch), rule.Tag, rule.In, rule.Out, rule.NewTag)
			out = append(out, trace.RuleDefEntry(int(rid-1), r.Intern(desc)))
		}
		for _, k := range order {
			rid := trace.RuleIDNone
			if k.rule > 0 {
				rid = int(k.rule - 1)
			}
			prt := &n.nodes[k.node].ports[k.port]
			out = append(out, trace.RuleMatchEntry(
				r.Intern(n.nodeName(n.nodes[k.node].id)), r.Intern(k.flow),
				r.Intern(n.nodeName(prt.peer)), k.prio, rid, agg[rmKey{k.node, k.port, k.prio, k.flow, k.rule}],
			))
		}
	}

	// Live detector tag table.
	if n.det != nil {
		n.det.eng.VisitLive(func(lt detect.LiveTag) {
			rt := &n.nodes[lt.Node]
			var flags uint16
			if lt.Origin {
				flags |= trace.DetFlagOrigin
			}
			if lt.Carry != 0 {
				flags |= trace.DetFlagCarry
			}
			out = append(out, trace.DetTagEntry(
				r.Intern(n.nodeName(rt.id)), r.Intern(n.nodeName(rt.ports[lt.Port].peer)),
				lt.Port, lt.Prio, uint64(lt.Tag), flags,
			))
		})
	}

	out = append(out, trace.SnapEndEntry(n.now, fr.rec.Overwrites(), len(out)+1))
	return out
}
