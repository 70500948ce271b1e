package pipeline

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// LinkKey identifies a directed pause relationship: Node paused Peer.
type LinkKey struct{ Node, Peer string }

// pauseKey identifies one open pause interval: PFC pauses per priority,
// so the same link can hold several intervals at once.
type pauseKey struct {
	LinkKey
	prio int
}

// Summary is the metric-computation sink: it folds batches into
// per-link pause pressure, pause-duration and queue-depth percentiles,
// drop attribution and deadlock onsets. State is proportional to the
// number of distinct links and flows, not events.
type Summary struct {
	Events  int64 // events folded in
	Pauses  map[LinkKey]int
	Resumes map[LinkKey]int
	// PauseDur histograms each link's pause-interval durations
	// (seconds), paired pause→resume per priority; intervals never
	// resumed (a deadlock, or a truncated trace) stay open and are not
	// observed.
	PauseDur map[LinkKey]*telemetry.Histogram
	// QDepth histograms each link's lossless ingress occupancy (bytes)
	// sampled at its PFC transitions — how deep the queue ran when it
	// asserted or released pause.
	QDepth        map[LinkKey]*telemetry.Histogram
	open          map[pauseKey]int64 // pause-onset T of open intervals
	DropByReason  map[string]int
	DropByFlow    map[string]int
	Demotes       int
	Deadlocks     int
	FirstDeadlock int64 // simulated ns of first onset, -1 if none
	FirstCycle    []string
	// Detects counts in-switch detector firings; FirstDetect is the
	// simulated ns of the first one (-1 if none).
	Detects     int
	FirstDetect int64
	// Mitigations counts detector mitigation sweeps (the packets they
	// dropped show up under DropByReason["mitigate"]).
	Mitigations int
	// Episodes is each deadlock's lifecycle in onset order: when it
	// formed, when (if ever) the detector saw it, and how it ended. An
	// episode still open when the trace runs out is reported unresolved
	// rather than dropped — a deadlock the run never cleared is the
	// finding, not noise.
	Episodes []Episode
	openEp   int // index into Episodes of the open one, -1 if none
	sealed   bool
	LastT    int64
}

// Episode is one deadlock's observed lifecycle.
type Episode struct {
	Onset  int64 // simulated ns of the deadlock event
	Detect int64 // first in-switch detection after onset, -1 if never
	End    int64 // simulated ns of the resolving event, -1 if none
	// Resolution is how the episode closed: "mitigated" (detector
	// sweep), "flushed" (watchdog recovery flush), "dissolved" (a new
	// onset arrived, so the prior cycle's end was never observed), or
	// "unresolved" (still open at end of trace).
	Resolution string
}

// NewSummary returns an empty summary sink.
func NewSummary() *Summary {
	return &Summary{
		Pauses:        map[LinkKey]int{},
		Resumes:       map[LinkKey]int{},
		PauseDur:      map[LinkKey]*telemetry.Histogram{},
		QDepth:        map[LinkKey]*telemetry.Histogram{},
		open:          map[pauseKey]int64{},
		DropByReason:  map[string]int{},
		DropByFlow:    map[string]int{},
		FirstDeadlock: -1,
		FirstDetect:   -1,
		openEp:        -1,
	}
}

// Consume implements Sink.
func (s *Summary) Consume(batch []trace.Event) error {
	for i := range batch {
		s.observe(&batch[i])
	}
	return nil
}

// Close implements Sink: an episode still open seals as unresolved
// (open pause intervals are deliberately left unobserved).
func (s *Summary) Close() error {
	s.seal()
	return nil
}

// seal marks a still-open deadlock episode unresolved. Idempotent, and
// also invoked from ReportDiag so a report rendered without Close is
// consistent.
func (s *Summary) seal() {
	if s.sealed {
		return
	}
	s.sealed = true
	if s.openEp >= 0 {
		s.Episodes[s.openEp].Resolution = "unresolved"
		s.openEp = -1
	}
}

// closeEpisode seals the open episode with the given resolution.
func (s *Summary) closeEpisode(t int64, resolution string) {
	if s.openEp < 0 {
		return
	}
	ep := &s.Episodes[s.openEp]
	ep.End = t
	ep.Resolution = resolution
	s.openEp = -1
}

func (s *Summary) observe(ev *trace.Event) {
	s.Events++
	if ev.T > s.LastT {
		s.LastT = ev.T
	}
	switch ev.Kind {
	case "pause":
		lk := LinkKey{ev.Node, ev.Peer}
		s.Pauses[lk]++
		s.open[pauseKey{lk, ev.Prio}] = ev.T
		s.depth(lk, ev.Depth)
	case "resume":
		lk := LinkKey{ev.Node, ev.Peer}
		s.Resumes[lk]++
		if start, ok := s.open[pauseKey{lk, ev.Prio}]; ok {
			delete(s.open, pauseKey{lk, ev.Prio})
			h := s.PauseDur[lk]
			if h == nil {
				h = telemetry.NewHistogram(telemetry.DurationBuckets())
				s.PauseDur[lk] = h
			}
			h.ObserveDuration(ev.T - start)
		}
		s.depth(lk, ev.Depth)
	case "drop":
		s.DropByReason[ev.Reason]++
		s.DropByFlow[ev.Flow]++
		if ev.Reason == "recovery-flush" {
			s.closeEpisode(ev.T, "flushed")
		}
	case "demote":
		s.Demotes++
	case "deadlock":
		s.Deadlocks++
		if s.FirstDeadlock < 0 {
			s.FirstDeadlock = ev.T
			s.FirstCycle = ev.Cycle
		}
		// A fresh onset while one is open means the prior cycle's end
		// was never observed: it dissolved (or re-formed) between
		// events, so its TTR is unknowable, not zero.
		s.closeEpisode(-1, "dissolved")
		s.Episodes = append(s.Episodes, Episode{Onset: ev.T, Detect: -1, End: -1})
		s.openEp = len(s.Episodes) - 1
	case "detect":
		s.Detects++
		if s.FirstDetect < 0 {
			s.FirstDetect = ev.T
		}
		if s.openEp >= 0 && s.Episodes[s.openEp].Detect < 0 {
			s.Episodes[s.openEp].Detect = ev.T
		}
	case "mitigate":
		s.Mitigations++
		s.closeEpisode(ev.T, "mitigated")
	}
}

func (s *Summary) depth(lk LinkKey, d int64) {
	h := s.QDepth[lk]
	if h == nil {
		h = telemetry.NewHistogram(telemetry.ByteBuckets())
		s.QDepth[lk] = h
	}
	h.Observe(float64(d))
}

// Diag carries the ingest-side health signals into a report: how many
// records were skipped, how many of those had a kind this reader does
// not speak (a newer producer), and whether the stream ended inside a
// record.
type Diag struct {
	Skipped   int64
	Alien     int64
	Truncated bool
}

// Report renders the human summary. top bounds every per-link table;
// skipped is the combined ingest/normalize skip count (surfaced so a
// lossy or damaged trace never reads as a quiet one). It is
// ReportDiag with only the skip count — output for a clean trace is
// unchanged.
func (s *Summary) Report(w io.Writer, top int, skipped int64) {
	s.ReportDiag(w, top, Diag{Skipped: skipped})
}

// ReportDiag renders the human summary with full ingest diagnostics.
// Every diagnostic line is conditional, so a clean trace renders
// byte-identically to the pre-Diag format.
func (s *Summary) ReportDiag(w io.Writer, top int, d Diag) {
	s.seal()
	fmt.Fprintf(w, "%d events over %v of simulated time", s.Events, time.Duration(s.LastT))
	if d.Skipped > 0 {
		fmt.Fprintf(w, " (%d malformed lines skipped)", d.Skipped)
	}
	fmt.Fprint(w, "\n\n")

	if s.FirstDeadlock >= 0 {
		fmt.Fprintf(w, "DEADLOCK onset at %v (%d onsets total); first cycle:\n",
			time.Duration(s.FirstDeadlock), s.Deadlocks)
		for _, e := range s.FirstCycle {
			fmt.Fprintf(w, "  %s\n", e)
		}
		fmt.Fprintln(w)
	} else {
		fmt.Fprint(w, "no deadlock\n\n")
	}

	if s.Detects > 0 {
		fmt.Fprintf(w, "in-switch detections: %d (first at %v), mitigation sweeps: %d\n\n",
			s.Detects, time.Duration(s.FirstDetect), s.Mitigations)
	}

	if len(s.Episodes) > 0 {
		et := telemetry.NewTable("Episode", "Onset", "TTD", "TTR", "Resolution")
		unresolved := 0
		for i, ep := range s.Episodes {
			ttd, ttr := "-", "-"
			if ep.Detect >= 0 {
				ttd = time.Duration(ep.Detect - ep.Onset).String()
			}
			if ep.End >= 0 {
				ttr = time.Duration(ep.End - ep.Onset).String()
			}
			res := ep.Resolution
			if res == "unresolved" {
				unresolved++
				res = fmt.Sprintf("unresolved (open since %v)", time.Duration(ep.Onset))
			}
			et.AddRow(i+1, time.Duration(ep.Onset), ttd, ttr, res)
		}
		fmt.Fprintf(w, "deadlock episodes:\n%s", et.String())
		if unresolved > 0 {
			fmt.Fprintf(w, "%d episode(s) still open at end of trace: the run ended deadlocked\n", unresolved)
		}
		fmt.Fprintln(w)
	}

	type row struct {
		k       LinkKey
		p, r    int
		pending int
	}
	var rows []row
	for k, p := range s.Pauses {
		rows = append(rows, row{k, p, s.Resumes[k], p - s.Resumes[k]})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].p != rows[j].p {
			return rows[i].p > rows[j].p
		}
		if rows[i].k.Node != rows[j].k.Node {
			return rows[i].k.Node < rows[j].k.Node
		}
		return rows[i].k.Peer < rows[j].k.Peer
	})
	if len(rows) > top {
		rows = rows[:top]
	}
	t := telemetry.NewTable("Pauser", "Paused peer", "Pauses", "Resumes", "Still paused")
	for _, r := range rows {
		t.AddRow(r.k.Node, r.k.Peer, r.p, r.r, r.pending)
	}
	fmt.Fprintf(w, "pause pressure (top %d links):\n%s\n", top, t.String())

	if len(s.PauseDur) > 0 {
		durs := sortedHists(s.PauseDur, top)
		dt := telemetry.NewTable("Pauser", "Paused peer", "Intervals", "p50", "p95", "p99")
		for _, r := range durs {
			dt.AddRow(r.k.Node, r.k.Peer, r.snap.Count,
				secDuration(r.snap.Quantile(0.50)),
				secDuration(r.snap.Quantile(0.95)),
				secDuration(r.snap.Quantile(0.99)))
		}
		fmt.Fprintf(w, "pause durations (top %d links by paired pause/resume intervals):\n%s\n", top, dt.String())
	}

	if len(s.QDepth) > 0 {
		depths := sortedHists(s.QDepth, top)
		qt := telemetry.NewTable("Pauser", "Paused peer", "Samples", "p50", "p95", "p99", "max")
		for _, r := range depths {
			qt.AddRow(r.k.Node, r.k.Peer, r.snap.Count,
				kbytes(r.snap.Quantile(0.50)),
				kbytes(r.snap.Quantile(0.95)),
				kbytes(r.snap.Quantile(0.99)),
				kbytes(r.snap.Max))
		}
		fmt.Fprintf(w, "ingress queue depth at PFC transitions (top %d links by samples):\n%s\n", top, qt.String())
	}

	if len(s.DropByReason) > 0 {
		dt := telemetry.NewTable("Drop reason", "Count")
		reasons := make([]string, 0, len(s.DropByReason))
		for r := range s.DropByReason {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		for _, r := range reasons {
			dt.AddRow(r, s.DropByReason[r])
		}
		fmt.Fprintf(w, "drops:\n%s", dt.String())
	}
	if s.Demotes > 0 {
		fmt.Fprintf(w, "lossless-to-lossy demotions: %d\n", s.Demotes)
	}

	if d.Alien > 0 {
		fmt.Fprintf(w, "\nNOTE: %d entries had kinds this reader does not speak (trace from a newer producer?)\n", d.Alien)
	}
	if d.Truncated {
		fmt.Fprint(w, "\nWARNING: trace ended mid-record (torn capture); totals above undercount the run\n")
	}
}

// histRow pairs a link with its histogram snapshot for sorting.
type histRow struct {
	k    LinkKey
	snap telemetry.HistSnap
}

// sortedHists snapshots a per-link histogram map ordered by (count
// desc, node, peer), truncated to top rows.
func sortedHists(m map[LinkKey]*telemetry.Histogram, top int) []histRow {
	out := make([]histRow, 0, len(m))
	for k, h := range m {
		out = append(out, histRow{k, h.Snapshot()})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].snap.Count != out[j].snap.Count {
			return out[i].snap.Count > out[j].snap.Count
		}
		if out[i].k.Node != out[j].k.Node {
			return out[i].k.Node < out[j].k.Node
		}
		return out[i].k.Peer < out[j].k.Peer
	})
	if len(out) > top {
		out = out[:top]
	}
	return out
}

// secDuration rounds a duration given in seconds for table display.
func secDuration(sec float64) time.Duration {
	return time.Duration(sec * 1e9).Round(10 * time.Nanosecond)
}

// kbytes renders a byte quantity as whole kilobytes ("9KB").
func kbytes(b float64) string {
	return fmt.Sprintf("%.0fKB", b/1024)
}
