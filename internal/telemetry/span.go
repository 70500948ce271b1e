package telemetry

import (
	"runtime/metrics"
	"time"
)

// Span measures one pipeline phase: wall-clock duration and the bytes
// the Go heap allocated while it was open. Spans nest — Child spans
// record under a slash-joined path ("synth/alg2"), so the exporters show
// the phase taxonomy directly. Ending a span records three metrics, all
// labeled span=<path>:
//
//	span_duration_seconds  histogram of wall-clock time
//	span_total             counter of completed spans
//	span_alloc_bytes_total counter of heap bytes allocated inside
//
// A nil *Span (what a disabled or nil registry hands out) is a valid
// no-op, so instrumented code never branches on telemetry being on.
//
// Alloc deltas come from runtime/metrics' monotonic heap-allocs gauge,
// which is cheap to read (no stop-the-world) but process-global:
// concurrent goroutines' allocations land in whichever spans are open.
// For the serial synthesis pipeline that is exactly the per-phase cost;
// for par=N runs it is an upper bound.
type Span struct {
	reg   *Registry
	path  string
	start time.Time
	heap0 uint64
}

const heapAllocsMetric = "/gc/heap/allocs:bytes"

// readHeapAllocs samples cumulative heap allocation bytes.
func readHeapAllocs() uint64 {
	s := [1]metrics.Sample{{Name: heapAllocsMetric}}
	metrics.Read(s[:])
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// StartSpan opens a root span under the given phase name.
func (r *Registry) StartSpan(name string) *Span {
	if !r.Enabled() {
		return nil
	}
	return &Span{reg: r, path: name, start: time.Now(), heap0: readHeapAllocs()}
}

// Child opens a nested span; its path is parent-path/name.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{reg: s.reg, path: s.path + "/" + name, start: time.Now(), heap0: readHeapAllocs()}
}

// End closes the span, records its metrics, and returns the wall-clock
// duration (0 for nil spans).
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	alloc := readHeapAllocs() - s.heap0
	s.reg.Histogram("span_duration_seconds", DurationBuckets(), "span", s.path).
		Observe(d.Seconds())
	s.reg.Counter("span_total", "span", s.path).Inc()
	s.reg.Counter("span_alloc_bytes_total", "span", s.path).Add(int64(alloc))
	return d
}
