package telemetry

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("reqs") != c {
		t.Fatal("same name must return the same counter")
	}
	g := r.Gauge("depth", "node", "L1")
	g.Set(4.5)
	if got := g.Value(); got != 4.5 {
		t.Fatalf("gauge = %v, want 4.5", got)
	}
	if r.Gauge("depth", "node", "L2") == g {
		t.Fatal("different labels must be different gauges")
	}
}

func TestLabelCanonicalization(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x", "b", "2", "a", "1")
	b := r.Counter("x", "a", "1", "b", "2")
	if a != b {
		t.Fatal("label order must not affect identity")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("odd label list must panic")
		}
	}()
	r.Counter("y", "only-key")
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	build := func() Snapshot {
		r := NewRegistry()
		r.Counter("z.last").Add(1)
		r.Counter("a.first", "sw", "L2").Add(2)
		r.Counter("a.first", "sw", "L1").Add(3)
		r.Gauge("g").Set(1.5)
		r.Histogram("h", []float64{1, 2}).Observe(1.5)
		return r.Snapshot()
	}
	s1, s2 := build(), build()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("snapshots differ:\n%+v\n%+v", s1, s2)
	}
	if s1.Counters[0].Name != "a.first" || s1.Counters[0].Labels[0].V != "L1" {
		t.Fatalf("unexpected counter order: %+v", s1.Counters)
	}
}

func TestMergeAccumulates(t *testing.T) {
	run := func(v int64) Snapshot {
		r := NewRegistry()
		r.Counter("deploy.pushes").Add(v)
		r.Gauge("last_seed").Set(float64(v))
		h := r.Histogram("pause", []float64{1, 10, 100})
		h.Observe(float64(v))
		return r.Snapshot()
	}
	agg := NewRegistry()
	agg.Merge(run(2))
	agg.Merge(run(50))
	s := agg.Snapshot()
	if s.Counters[0].Value != 52 {
		t.Fatalf("merged counter = %d, want 52", s.Counters[0].Value)
	}
	if s.Gauges[0].Value != 50 {
		t.Fatalf("merged gauge = %v, want 50 (last write wins)", s.Gauges[0].Value)
	}
	h := s.Hists[0]
	if h.Count != 2 || h.Sum != 52 {
		t.Fatalf("merged histogram count/sum = %d/%v, want 2/52", h.Count, h.Sum)
	}
	if h.Min != 2 || h.Max != 50 {
		t.Fatalf("merged histogram min/max = %v/%v, want 2/50", h.Min, h.Max)
	}
}

func TestMergeMismatchedBoundsPanics(t *testing.T) {
	a := NewRegistry()
	a.Histogram("h", []float64{1, 2}).Observe(1)
	b := NewRegistry()
	b.Histogram("h", []float64{1, 2, 3}).Observe(1)
	defer func() {
		if recover() == nil {
			t.Fatal("merging histograms with different bounds must panic")
		}
	}()
	a.Merge(b.Snapshot())
}

func TestDisabledRegistryIsNoop(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(false)
	if c := r.Counter("x"); c != nil {
		t.Fatal("disabled registry must hand out nil counters")
	}
	r.Counter("x").Inc()                      // must not panic
	r.Gauge("y").Set(1)                       // must not panic
	r.Histogram("z", []float64{1}).Observe(1) // must not panic
	if sp := r.StartSpan("phase"); sp != nil {
		t.Fatal("disabled registry must hand out nil spans")
	}
	var nilReg *Registry
	nilReg.Counter("x").Inc() // nil registry is a valid sink too
	if s := nilReg.Snapshot(); len(s.Counters) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

// TestRegistryConcurrentStress hammers one registry from many goroutines
// mixing metric creation, updates, spans, snapshots and merges. Run
// under -race (make race does) it is the satellite's concurrency proof.
func TestRegistryConcurrentStress(t *testing.T) {
	r := NewRegistry()
	agg := NewRegistry()
	const workers = 8
	const iters = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("stress.counter", "worker", fmt.Sprint(w%4)).Inc()
				r.Gauge("stress.gauge").Set(float64(i))
				r.Histogram("stress.hist", []float64{1, 10, 100}, "worker", fmt.Sprint(w%4)).
					Observe(float64(i % 150))
				sp := r.StartSpan("stress")
				sp.Child("inner").End()
				sp.End()
				if i%50 == 0 {
					agg.Merge(r.Snapshot())
				}
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, c := range r.Snapshot().Counters {
		if c.Name == "stress.counter" {
			total += c.Value
		}
	}
	if total != workers*iters {
		t.Fatalf("lost counter increments: %d, want %d", total, workers*iters)
	}
}
