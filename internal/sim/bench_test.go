package sim

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/paper"
	"repro/internal/routing"
	"repro/internal/topology"
)

// BenchmarkEventScheduleDispatch drives the scheduler alone — the engine's
// inner loop with the dispatch switch stripped away — with the event mix
// of a Figure 12 run: 44 busy ports, each txDone scheduling the port's
// next txDone and the frame's arrival (about 90 pending, as the real run
// averages), a PFC frame every 64 events and one periodic timer. "lanes"
// is that mix as the engine schedules it. "heap" is the same workload
// under kinds that have no lane, so every event takes the fallback heap:
// what one heap cost, and what an out-of-order lane push still costs.
func BenchmarkEventScheduleDispatch(b *testing.B) {
	b.Run("lanes", func(b *testing.B) { benchScheduler(b, evTxDone, evArrive, evPFC) })
	b.Run("heap", func(b *testing.B) { benchScheduler(b, evFlowKick, evCall, evCNP) })
}

func benchScheduler(b *testing.B, txDone, arrive, pfc eventKind) {
	const (
		ports  = 44
		tx     = 204  // ns: one 1024-byte MTU at 40 Gb/s
		prop   = 1000 // ns
		period = 100_000
	)
	var s scheduler
	var seq int64
	push := func(kind eventKind, at int64) {
		e := event{at: at, seq: seq, kind: kind}
		seq++
		s.push(&e)
	}
	for p := int64(0); p < ports; p++ {
		push(txDone, p*tx/ports) // ports out of phase, as after a shuffle's start
	}
	push(evTimer, period)
	var e event
	step := func(i int) {
		if !s.pop(math.MaxInt64, &e) {
			b.Fatal("scheduler ran dry")
		}
		switch e.kind {
		case txDone:
			push(txDone, e.at+tx)
			push(arrive, e.at+tx+prop)
		case evTimer:
			push(evTimer, e.at+period)
		}
		if i%64 == 0 {
			push(pfc, e.at+prop)
		}
	}
	for i := 0; i < 4096; i++ { // reach the standing population and ring sizes
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}

// steadyNet builds the paper testbed with a single line-rate flow and
// warms it past the slab/lane high-water marks. SampleInterval is pushed
// out so the rate-series buckets never grow during measurement.
func steadyNet(tb testing.TB, until time.Duration) *Network {
	c := paper.Testbed()
	cfg := DefaultConfig()
	cfg.SampleInterval = time.Hour
	n := New(c.Graph, routing.ComputeToHosts(c.Graph, routing.UpDown), cfg)
	g := c.Graph
	n.AddFlow(FlowSpec{Name: "f", Src: g.MustLookup("H1"), Dst: g.MustLookup("H9")})
	n.Run(until)
	return n
}

// BenchmarkSteadyStateForwarding measures the full packet path — host TX,
// switch pipeline, delivery — per 100us simulated slice. After warm-up the
// engine must run allocation-free: allocs/op is gated at zero by
// TestSteadyStateZeroAlloc.
func BenchmarkSteadyStateForwarding(b *testing.B) {
	const slice = 100 * time.Microsecond
	n := steadyNet(b, 2*time.Millisecond)
	at := n.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at += slice
		n.Run(at)
	}
	if n.Drops().Total() != 0 {
		b.Fatalf("drops: %+v", n.Drops())
	}
}

// TestSteadyStateZeroAlloc is the acceptance check behind the benchmark:
// once the packet slab and the event lanes reach their high-water marks,
// forwarding MTU packets schedules and dispatches with zero heap
// allocations — and leaves the warm network's invariants intact.
func TestSteadyStateZeroAlloc(t *testing.T) {
	n := steadyNet(t, 2*time.Millisecond)
	at := n.Now()
	if avg := testing.AllocsPerRun(50, func() {
		at += 100 * time.Microsecond
		n.Run(at)
	}); avg != 0 {
		t.Errorf("steady-state Run allocates %.1f allocs per 100us slice, want 0", avg)
	}
	if got := n.Flows()[0].Received(); got == 0 {
		t.Fatal("no traffic delivered; the zero-alloc run measured an idle network")
	}
	if err := n.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// BenchmarkLargeClosSoak runs a 2ms slice of a 4-pod Clos (64 hosts, 40
// switches) under a ToR-crossing permutation load — the scale regime the
// sweep runner fans out over.
func BenchmarkLargeClosSoak(b *testing.B) {
	c, err := topology.NewClos(topology.ClosConfig{
		Pods: 4, ToRsPerPod: 4, LeafsPerPod: 4, Spines: 8, HostsPerToR: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	tbl := routing.ComputeToHosts(c.Graph, routing.UpDown)
	cfg := DefaultConfig()
	cfg.SampleInterval = time.Hour
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := New(c.Graph, tbl, cfg)
		nh := len(c.Hosts)
		for j := 0; j < nh; j++ {
			n.AddFlow(FlowSpec{
				Name: fmt.Sprintf("f%d", j),
				Src:  c.Hosts[j],
				Dst:  c.Hosts[(j+nh/2)%nh], // cross to the far pods
			})
		}
		n.Run(2 * time.Millisecond)
		if n.Drops().Total() != 0 {
			b.Fatalf("drops: %+v", n.Drops())
		}
	}
}
