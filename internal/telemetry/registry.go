// Package telemetry is the repo's shared observability substrate: a
// concurrency-safe metrics registry (counters, gauges, bucketed
// histograms), a lightweight span tracer for pipeline phases, and
// exporters for Prometheus text exposition and deterministic JSONL.
//
// Every long-running subsystem reports through it — the synthesis
// pipeline emits per-phase spans, the simulator feeds PFC pause-duration
// and queue-depth histograms, and the controller's two-phase deployment
// exports retry/rollback counters and gauges — so a single HTTP ops
// endpoint (ops.go) can expose the whole system's live state.
//
// Identity is (name, sorted label pairs). Metric names may use any
// characters; the Prometheus exporter sanitizes them at exposition time,
// so legacy dotted names ("deploy.install.fail") and native underscore
// names coexist. All mutating operations are safe for concurrent use;
// snapshots are deterministic (sorted) so golden tests and diffing work.
package telemetry

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric label pair.
type Label struct {
	K string `json:"k"`
	V string `json:"v"`
}

// Counter is a monotonically increasing int64 metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry owns a namespace of metrics. The zero value is not usable;
// call NewRegistry. A nil *Registry is a valid no-op sink: every lookup
// returns nil and every nil metric's mutators return immediately, so
// instrumented code needs no nil checks.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*counterEntry
	gauges   map[string]*gaugeEntry
	hists    map[string]*histEntry

	disabled atomic.Bool
}

type counterEntry struct {
	name   string
	labels []Label
	c      *Counter
}

type gaugeEntry struct {
	name   string
	labels []Label
	g      *Gauge
}

type histEntry struct {
	name   string
	labels []Label
	h      *Histogram
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*counterEntry),
		gauges:   make(map[string]*gaugeEntry),
		hists:    make(map[string]*histEntry),
	}
}

// Default is the process-wide registry the instrumented packages (core
// synthesis, elp, tcam) report into. Set TAGGER_TELEMETRY=off to disable
// it at startup — span and metric calls against a disabled registry are
// cheap no-ops, which is what the `make telemetry-overhead` gate
// measures against.
var Default = NewRegistry()

func init() {
	if os.Getenv("TAGGER_TELEMETRY") == "off" {
		Default.SetEnabled(false)
	}
}

// SetEnabled toggles the registry. Disabled registries hand out nil
// metrics (no-op on use) and nil spans. Metrics obtained while enabled
// keep working, and Snapshot still reports them; the flag gates lookups,
// not live handles.
func (r *Registry) SetEnabled(on bool) {
	if r == nil {
		return
	}
	r.disabled.Store(!on)
}

// Enabled reports whether the registry is accepting instrumentation.
func (r *Registry) Enabled() bool { return r != nil && !r.disabled.Load() }

// canonLabels validates variadic k,v pairs and returns them sorted by
// key. Odd-length label lists are a programming error.
func canonLabels(name string, kv []string) []Label {
	if len(kv) == 0 {
		return nil
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("telemetry: metric %q: odd label list %q", name, kv))
	}
	ls := make([]Label, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		ls = append(ls, Label{K: kv[i], V: kv[i+1]})
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].K < ls[j].K })
	return ls
}

// metricKey is the registry map key: name plus canonical label string.
func metricKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0)
		b.WriteString(l.K)
		b.WriteByte(1)
		b.WriteString(l.V)
	}
	return b.String()
}

// Counter returns the counter registered under name and the given k,v
// label pairs, creating it on first use.
func (r *Registry) Counter(name string, kv ...string) *Counter {
	if !r.Enabled() {
		return nil
	}
	labels := canonLabels(name, kv)
	key := metricKey(name, labels)
	r.mu.RLock()
	e, ok := r.counters[key]
	r.mu.RUnlock()
	if ok {
		return e.c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok = r.counters[key]; ok {
		return e.c
	}
	e = &counterEntry{name: name, labels: labels, c: &Counter{}}
	r.counters[key] = e
	return e.c
}

// Gauge returns the gauge registered under name and the given k,v label
// pairs, creating it on first use.
func (r *Registry) Gauge(name string, kv ...string) *Gauge {
	if !r.Enabled() {
		return nil
	}
	labels := canonLabels(name, kv)
	key := metricKey(name, labels)
	r.mu.RLock()
	e, ok := r.gauges[key]
	r.mu.RUnlock()
	if ok {
		return e.g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok = r.gauges[key]; ok {
		return e.g
	}
	e = &gaugeEntry{name: name, labels: labels, g: &Gauge{}}
	r.gauges[key] = e
	return e.g
}

// Histogram returns the histogram registered under name and the given
// k,v label pairs, creating it with the given bucket upper bounds on
// first use. Later lookups of the same metric must pass compatible
// bounds (or nil to reuse whatever was registered).
func (r *Registry) Histogram(name string, bounds []float64, kv ...string) *Histogram {
	if !r.Enabled() {
		return nil
	}
	labels := canonLabels(name, kv)
	key := metricKey(name, labels)
	r.mu.RLock()
	e, ok := r.hists[key]
	r.mu.RUnlock()
	if ok {
		return e.h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok = r.hists[key]; ok {
		return e.h
	}
	e = &histEntry{name: name, labels: labels, h: NewHistogram(bounds)}
	r.hists[key] = e
	return e.h
}

// Snapshot captures the full registry state, sorted by (name, labels) so
// two snapshots of identical state render identically.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for key, e := range r.counters {
		s.Counters = append(s.Counters, CounterSnap{
			Name: e.name, Labels: e.labels, Value: e.c.Value(), key: key})
	}
	for key, e := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnap{
			Name: e.name, Labels: e.labels, Value: e.g.Value(), key: key})
	}
	for key, e := range r.hists {
		hs := e.h.Snapshot()
		hs.Name, hs.Labels, hs.key = e.name, e.labels, key
		s.Hists = append(s.Hists, hs)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].key < s.Counters[j].key })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].key < s.Gauges[j].key })
	sort.Slice(s.Hists, func(i, j int) bool { return s.Hists[i].key < s.Hists[j].key })
	return s
}

// Merge folds a snapshot into the registry: counters and histogram
// buckets add, gauges take the snapshot's value. It is how per-run
// registries (one chaos soak, one controller bring-up) roll up into the
// process-wide registry an ops endpoint serves. Merging a histogram into
// an existing one with different bucket bounds panics: two metrics
// sharing a name must share a layout.
func (r *Registry) Merge(s Snapshot) {
	if !r.Enabled() {
		return
	}
	for _, c := range s.Counters {
		r.Counter(c.Name, flattenLabels(c.Labels)...).Add(c.Value)
	}
	for _, g := range s.Gauges {
		r.Gauge(g.Name, flattenLabels(g.Labels)...).Set(g.Value)
	}
	for _, h := range s.Hists {
		dst := r.Histogram(h.Name, h.Bounds, flattenLabels(h.Labels)...)
		dst.absorb(h)
	}
}

// flattenLabels converts canonical labels back to the variadic k,v form.
func flattenLabels(ls []Label) []string {
	if len(ls) == 0 {
		return nil
	}
	kv := make([]string, 0, 2*len(ls))
	for _, l := range ls {
		kv = append(kv, l.K, l.V)
	}
	return kv
}

// Snapshot is a point-in-time copy of a registry, decoupled from the
// live metrics and deterministically ordered.
type Snapshot struct {
	Counters []CounterSnap `json:"counters,omitempty"`
	Gauges   []GaugeSnap   `json:"gauges,omitempty"`
	Hists    []HistSnap    `json:"histograms,omitempty"`
}

// CounterSnap is one counter's snapshot.
type CounterSnap struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  int64   `json:"value"`

	key string
}

// GaugeSnap is one gauge's snapshot.
type GaugeSnap struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  float64 `json:"value"`

	key string
}
