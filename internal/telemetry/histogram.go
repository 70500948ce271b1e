package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
)

// Histogram is a concurrency-safe bucketed histogram. Buckets are
// defined by sorted upper bounds; an implicit +Inf bucket catches the
// overflow. Observations update per-bucket counters, a running sum, and
// min/max watermarks, all lock-free.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last = +Inf overflow
	sumBits atomic.Uint64
	count   atomic.Int64
	minBits atomic.Uint64 // +Inf until first observation
	maxBits atomic.Uint64 // -Inf until first observation
}

// NewHistogram builds a standalone histogram over the given bucket upper
// bounds (sorted ascending; a copy is taken). Most callers get
// histograms from a Registry; standalone construction serves offline
// analyzers like taggertrace.
func NewHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	h := &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if math.Float64frombits(old) <= v {
			break
		}
		if h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if math.Float64frombits(old) >= v {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// ObserveDuration records a duration given in nanoseconds as seconds —
// the Prometheus convention for time histograms.
func (h *Histogram) ObserveDuration(ns int64) { h.Observe(float64(ns) / 1e9) }

// Snapshot captures the histogram state. Name/Labels are filled by the
// registry when snapshotting registered histograms.
func (h *Histogram) Snapshot() HistSnap {
	if h == nil {
		return HistSnap{}
	}
	s := HistSnap{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Sum:    math.Float64frombits(h.sumBits.Load()),
		Count:  h.count.Load(),
		Min:    math.Float64frombits(h.minBits.Load()),
		Max:    math.Float64frombits(h.maxBits.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// absorb adds a snapshot's observations into the live histogram (the
// Merge path). Bounds must match.
func (h *Histogram) absorb(s HistSnap) {
	if h == nil || s.Count == 0 {
		return
	}
	if len(s.Bounds) != len(h.bounds) {
		panic("telemetry: histogram merge with mismatched bucket bounds")
	}
	for i, b := range s.Bounds {
		if b != h.bounds[i] {
			panic("telemetry: histogram merge with mismatched bucket bounds")
		}
	}
	for i, c := range s.Counts {
		h.counts[i].Add(c)
	}
	h.count.Add(s.Count)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + s.Sum)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if math.Float64frombits(old) <= s.Min {
			break
		}
		if h.minBits.CompareAndSwap(old, math.Float64bits(s.Min)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if math.Float64frombits(old) >= s.Max {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(s.Max)) {
			break
		}
	}
}

// Quantile estimates the q-th quantile (0..1) from a histogram snapshot
// by linear interpolation within the containing bucket, clamped to the
// observed min/max so sparse histograms don't report bucket-edge
// artifacts. Returns NaN when empty.
func (s HistSnap) Quantile(q float64) float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := int64(0)
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Max
			if i < len(s.Bounds) && s.Bounds[i] < hi {
				hi = s.Bounds[i]
			}
			if lo < s.Min {
				lo = s.Min
			}
			if hi < lo {
				hi = lo
			}
			frac := (rank - float64(cum)) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return s.Max
}

// HistSnap is one histogram's snapshot.
type HistSnap struct {
	Name   string    `json:"name"`
	Labels []Label   `json:"labels,omitempty"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"` // per bucket; last is +Inf overflow
	Sum    float64   `json:"sum"`
	Count  int64     `json:"count"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`

	key string
}

// ExpBuckets returns n upper bounds starting at start, each factor times
// the previous — the standard shape for duration and size histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: ExpBuckets wants start > 0, factor > 1, n >= 1")
	}
	bs := make([]float64, n)
	v := start
	for i := range bs {
		bs[i] = v
		v *= factor
	}
	return bs
}

// DurationBuckets spans 1µs to ~65s in powers of two — wide enough for
// both PFC pause durations (µs..ms) and synthesis phases (ms..s).
func DurationBuckets() []float64 { return ExpBuckets(1e-6, 2, 26) }

// ByteBuckets spans 1KiB to 1GiB in powers of two, for queue depths and
// alloc deltas.
func ByteBuckets() []float64 { return ExpBuckets(1024, 2, 21) }
