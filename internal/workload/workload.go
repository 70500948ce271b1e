// Package workload builds the named traffic scenarios of the Tagger
// paper's evaluation (§8.1) as ready-to-run simulations: the 1-bounce
// deadlock of Figures 3/10, the routing loop of Figure 11, the shuffle
// PAUSE-propagation of Figure 12, and generic patterns for the overhead
// measurements.
package workload

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/paper"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Scenario is a configured simulation plus handles to its flows.
type Scenario struct {
	Clos   *topology.Clos
	Tables *routing.Tables
	Net    *sim.Network
	Flows  []*sim.Flow
	ByName map[string]*sim.Flow
	// Duration is the recommended Run() horizon for the scenario.
	Duration time.Duration
}

// Run executes the scenario to its recommended horizon.
func (s *Scenario) Run() { s.Net.Run(s.Duration) }

// Options selects the Tagger deployment for a scenario.
type Options struct {
	// Tagger enables the Clos bounce-counting rules with the given bounce
	// budget; Bounces <= 0 disables Tagger entirely (the baseline).
	Bounces int
}

func newScenario(opt Options, duration time.Duration) *Scenario {
	return newScenarioWith(opt, duration, routing.UpDown)
}

// newScenarioWith builds a testbed scenario under the given routing
// discipline (Figures 10-12 pin their special paths over static up-down
// tables; the reconvergence scenario needs shortest-path recomputation).
func newScenarioWith(opt Options, duration time.Duration, d routing.Discipline) *Scenario {
	c := paper.Testbed()
	tb := routing.ComputeToHosts(c.Graph, d)
	n := sim.New(c.Graph, tb, sim.DefaultConfig())
	if opt.Bounces > 0 {
		n.InstallTagger(core.ClosRules(c.Graph, opt.Bounces, 1))
	}
	return &Scenario{
		Clos: c, Tables: tb, Net: n,
		ByName:   map[string]*sim.Flow{},
		Duration: duration,
	}
}

func (s *Scenario) addFlow(spec sim.FlowSpec) *sim.Flow {
	f := s.Net.AddFlow(spec)
	s.Flows = append(s.Flows, f)
	s.ByName[spec.Name] = f
	return f
}

// hostPath extends a switch-level path with the host endpoints.
func hostPath(g *topology.Graph, src topology.NodeID, swPath routing.Path, dst topology.NodeID) routing.Path {
	p := make(routing.Path, 0, len(swPath)+2)
	p = append(p, src)
	p = append(p, swPath...)
	p = append(p, dst)
	return p
}

// Figure10 builds the 1-bounce deadlock experiment: the green flow
// (H9 -> H1) and blue flow (H2 -> H13) pinned to the Figure 3 paths, blue
// starting 2 ms in (the paper staggers them by 20 s on the testbed; the
// simulator compresses time).
func Figure10(opt Options) *Scenario {
	s := newScenario(opt, 20*time.Millisecond)
	g := s.Clos.Graph
	n := func(name string) topology.NodeID { return g.MustLookup(name) }
	s.addFlow(sim.FlowSpec{
		Name: "green", Src: n("H9"), Dst: n("H1"),
		Pin: hostPath(g, n("H9"), paper.Fig3GreenPath(s.Clos), n("H1")),
	})
	s.addFlow(sim.FlowSpec{
		Name: "blue", Src: n("H2"), Dst: n("H13"), Start: 2 * time.Millisecond,
		Pin: hostPath(g, n("H2"), paper.Fig3BluePath(s.Clos), n("H13")),
	})
	return s
}

// Figure11 builds the routing-loop experiment: F1 (H1 -> H5) and F2
// (H2 -> H6) run normally; at 5 ms a bad route traps H6-bound traffic in
// a T1 <-> L1 loop. F1's up-down path shares the T1-L1 link with the loop.
func Figure11(opt Options) *Scenario {
	s := newScenario(opt, 20*time.Millisecond)
	g := s.Clos.Graph
	n := func(name string) topology.NodeID { return g.MustLookup(name) }
	// Pin F1 via L1 so it demonstrably shares the looped link.
	s.addFlow(sim.FlowSpec{
		Name: "F1", Src: n("H1"), Dst: n("H5"),
		Pin: routing.Path{n("H1"), n("T1"), n("L1"), n("T2"), n("H5")},
	})
	s.addFlow(sim.FlowSpec{Name: "F2", Src: n("H2"), Dst: n("H6")})
	s.Net.At(5*time.Millisecond, func() {
		s.Tables.OverrideNextNode(n("T1"), n("H6"), n("L1"))
		s.Tables.OverrideNextNode(n("L1"), n("H6"), n("T1"))
	})
	return s
}

// Figure12 builds the PAUSE-propagation experiment: a 4-to-1 shuffle
// (H9, H10, H13, H14 -> H2) plus a 1-to-4 shuffle (H5 -> H11, H12, H15,
// H16). Two of the eight flows are pinned onto the Figure 3 1-bounce
// paths, recreating the CBD; without Tagger the resulting deadlock pauses
// every flow in the fabric.
func Figure12(opt Options) *Scenario {
	s := newScenario(opt, 25*time.Millisecond)
	g := s.Clos.Graph
	n := func(name string) topology.NodeID { return g.MustLookup(name) }

	// The bounced pair (starts staggered so the CBD assembles mid-run).
	s.addFlow(sim.FlowSpec{
		Name: "H9>H2", Src: n("H9"), Dst: n("H2"), Start: 4 * time.Millisecond,
		Pin: routing.Path{n("H9"), n("T3"), n("L3"), n("S2"), n("L1"), n("S1"), n("L2"), n("T1"), n("H2")},
	})
	s.addFlow(sim.FlowSpec{
		Name: "H5>H15", Src: n("H5"), Dst: n("H15"), Start: 6 * time.Millisecond,
		Pin: routing.Path{n("H5"), n("T2"), n("L1"), n("S1"), n("L3"), n("S2"), n("L4"), n("T4"), n("H15")},
	})
	// Remaining shuffle flows on normal routes.
	for _, src := range []string{"H10", "H13", "H14"} {
		s.addFlow(sim.FlowSpec{
			Name: src + ">H2", Src: n(src), Dst: n("H2"),
		})
	}
	for _, dst := range []string{"H11", "H12", "H16"} {
		s.addFlow(sim.FlowSpec{
			Name: "H5>" + dst, Src: n("H5"), Dst: n(dst), Start: time.Millisecond,
		})
	}
	return s
}

// Permutation builds a cross-pod permutation workload on normal up-down
// routes (no failures, no bounces): every host in pod 0 sends to the
// corresponding host in pod 1 and vice versa. It is the §8 performance
// baseline for measuring Tagger's overhead.
func Permutation(opt Options) *Scenario {
	s := newScenario(opt, 10*time.Millisecond)
	g := s.Clos.Graph
	hosts := s.Clos.Hosts
	half := len(hosts) / 2
	for i := 0; i < half; i++ {
		src, dst := hosts[i], hosts[half+i]
		s.addFlow(sim.FlowSpec{
			Name: fmt.Sprintf("%s>%s", g.Node(src).Name, g.Node(dst).Name),
			Src:  src, Dst: dst,
		})
	}
	return s
}

// MultiClassIsolation builds the §6 reduced-isolation experiment: a
// class-2 flow (NIC stamp 2) rides priority 2 on an up-down path while a
// class-1 flow is (optionally) bounced into priority 2 on a shared
// segment and then congested at its destination. With the bounce, the
// PFC pauses the congested class-1 traffic triggers land on priority 2
// and throttle the innocent class-2 flow — the isolation cost the paper
// accepts because bounces are rare.
//
// Flows: "victim" (class 2, H13 -> H2 via T4>L4>S1>L2>T1), "mixer"
// (class 1, H9 -> H1; bounced at L1 when bounce is true, normal up-down
// otherwise), and "comp" (class 1, H5 -> H1) congesting T1 -> H1.
func MultiClassIsolation(bounce bool) *Scenario {
	s := newScenario(Options{Bounces: 1}, 15*time.Millisecond)
	// Shared rules: 1 bounce, 2 classes -> tags 1..3.
	s.Net.InstallTagger(core.ClosRules(s.Clos.Graph, 1, 2))
	g := s.Clos.Graph
	n := func(name string) topology.NodeID { return g.MustLookup(name) }

	s.addFlow(sim.FlowSpec{
		Name: "victim", Src: n("H13"), Dst: n("H2"), StartTag: 2,
		Pin: routing.Path{n("H13"), n("T4"), n("L4"), n("S1"), n("L2"), n("T1"), n("H2")},
	})
	mixer := sim.FlowSpec{Name: "mixer", Src: n("H9"), Dst: n("H1"), Start: 2 * time.Millisecond}
	if bounce {
		// The L1-T1 "failure" reroute: the mixer bounces at L1 into
		// priority 2 and detours across the victim's S1 > L2 > T1
		// segment — class 2 now shares its queues with bounced class-1
		// traffic.
		mixer.Pin = routing.Path{n("H9"), n("T3"), n("L3"), n("S2"), n("L1"),
			n("S1"), n("L2"), n("T1"), n("H1")}
	} else {
		// Healthy route: disjoint from the victim beyond T1's host links.
		mixer.Pin = routing.Path{n("H9"), n("T3"), n("L3"), n("S2"), n("L1"), n("T1"), n("H1")}
	}
	s.addFlow(mixer)
	return s
}

// AggregateGoodput sums the mean delivered rate of all flows over a
// window.
func (s *Scenario) AggregateGoodput(from, to time.Duration) float64 {
	var sum float64
	for _, f := range s.Flows {
		sum += f.MeanGbps(from, to)
	}
	return sum
}
