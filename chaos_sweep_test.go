package tagger

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// dropSpanCounters filters out span self-measurement (span_alloc_bytes_total
// et al.), which tracks the process heap, not the simulation.
func dropSpanCounters(cs []telemetry.CounterSnap) []telemetry.CounterSnap {
	out := cs[:0:0]
	for _, c := range cs {
		if strings.HasPrefix(c.Name, "span_") {
			continue
		}
		out = append(out, c)
	}
	return out
}

// TestChaosSweepParDeterminism is the sweep-level determinism contract,
// run under -race by `make determinism`: fanning the seeded soaks across
// workers changes wall-clock only — per-seed verdicts and the merged
// telemetry aggregate are byte-identical to the serial sweep.
func TestChaosSweepParDeterminism(t *testing.T) {
	seeds := sweep.Seeds(1, 4)
	for _, withTagger := range []bool{false, true} {
		serialReg := telemetry.NewRegistry()
		serial, err := ChaosSweep(seeds, withTagger, RunOptions{Par: 1, Ops: serialReg})
		if err != nil {
			t.Fatalf("withTagger=%v serial: %v", withTagger, err)
		}
		parReg := telemetry.NewRegistry()
		par, err := ChaosSweep(seeds, withTagger, RunOptions{Par: 4, Ops: parReg})
		if err != nil {
			t.Fatalf("withTagger=%v par: %v", withTagger, err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("withTagger=%v: par=4 verdicts diverge from par=1:\n%+v\n%+v",
				withTagger, serial, par)
		}
		// Spans measure the harness itself — wall-clock durations and
		// process-global alloc deltas — and legitimately differ run to
		// run; compare the simulator/deploy metrics instead — every
		// non-span counter and the merged histogram populations.
		sa, sb := serialReg.Snapshot(), parReg.Snapshot()
		ca, cb := dropSpanCounters(sa.Counters), dropSpanCounters(sb.Counters)
		if !reflect.DeepEqual(ca, cb) {
			t.Errorf("withTagger=%v: merged counters diverge between par=1 and par=4:\n%+v\n%+v",
				withTagger, ca, cb)
		}
		if len(sa.Hists) != len(sb.Hists) {
			t.Fatalf("withTagger=%v: histogram sets diverge: %d vs %d", withTagger, len(sa.Hists), len(sb.Hists))
		}
		for i := range sa.Hists {
			a, b := sa.Hists[i], sb.Hists[i]
			if a.Name != b.Name || !reflect.DeepEqual(a.Labels, b.Labels) {
				t.Fatalf("withTagger=%v: histogram %d identity diverges: %s vs %s", withTagger, i, a.Name, b.Name)
			}
			// Duration-valued histograms under "span_*" aggregate timing;
			// everything else (pause durations, queue depths in sim time)
			// must match exactly, count and buckets.
			if a.Name == "span_duration_seconds" || a.Name == "span_alloc_bytes" {
				continue
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("withTagger=%v: histogram %s diverges between par=1 and par=4", withTagger, a.Name)
			}
		}
	}
}

// TestChaosSweepMatchesSoak: the sweep is a pure fan-out of ChaosSoak —
// element i equals an independent ChaosSoak of the same seed.
func TestChaosSweepMatchesSoak(t *testing.T) {
	seeds := sweep.Seeds(1, 2)
	res, err := ChaosSweep(seeds, true, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		solo, err := ChaosSoak(seed, true)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res[i], solo) {
			t.Errorf("sweep seed %d diverges from a standalone soak", seed)
		}
	}
}
