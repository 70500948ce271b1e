package telemetry

import (
	"testing"
	"time"
)

// allocSink keeps test allocations observable by the heap stats.
var allocSink []byte

func TestSpanRecordsMetrics(t *testing.T) {
	r := NewRegistry()
	sp := r.StartSpan("synth")
	child := sp.Child("alg2")
	allocSink = make([]byte, 1<<20) // force a visible alloc delta inside the child
	time.Sleep(time.Millisecond)
	if d := child.End(); d < time.Millisecond {
		t.Fatalf("child duration %v, want >= 1ms", d)
	}
	sp.End()

	s := r.Snapshot()
	byLabel := map[string]int64{}
	for _, c := range s.Counters {
		if c.Name == "span_total" {
			byLabel[c.Labels[0].V] = c.Value
		}
	}
	if byLabel["synth"] != 1 || byLabel["synth/alg2"] != 1 {
		t.Fatalf("span_total by path = %v, want synth=1 synth/alg2=1", byLabel)
	}
	var alloced int64
	for _, c := range s.Counters {
		if c.Name == "span_alloc_bytes_total" && c.Labels[0].V == "synth/alg2" {
			alloced = c.Value
		}
	}
	if alloced < 1<<20 {
		t.Fatalf("span_alloc_bytes_total{synth/alg2} = %d, want >= 1MiB", alloced)
	}
	var durCount int64
	for _, h := range s.Hists {
		if h.Name == "span_duration_seconds" && h.Labels[0].V == "synth/alg2" {
			durCount = h.Count
		}
	}
	if durCount != 1 {
		t.Fatalf("span_duration_seconds{synth/alg2} count = %d, want 1", durCount)
	}
}

func TestNilSpanIsNoop(t *testing.T) {
	var sp *Span
	if sp.Child("x") != nil || sp.End() != 0 {
		t.Fatal("nil span must be inert")
	}
	r := NewRegistry()
	r.SetEnabled(false)
	if got := r.StartSpan("x").Child("y").End(); got != 0 {
		t.Fatalf("disabled-registry span chain returned %v, want 0", got)
	}
}
