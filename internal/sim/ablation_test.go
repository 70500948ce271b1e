package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/elp"
	"repro/internal/paper"
	"repro/internal/routing"
	"repro/internal/topology"
)

// TestXonSweepFormationRegime documents the deadlock-formation ablation
// from DESIGN.md: with resume-on-empty (Xon = 0) the Figure 3 CBD locks
// up; with generous resume hysteresis the same traffic stabilizes into
// pause ping-pong (formation is parameter-sensitive; prevention is not —
// see TestTaggerImmuneAcrossRegimes).
func TestXonSweepFormationRegime(t *testing.T) {
	form := func(xon int64) bool {
		c := paper.Testbed()
		tb := routing.ComputeToHosts(c.Graph, routing.UpDown)
		cfg := DefaultConfig()
		cfg.PFC.XonThreshold = xon
		n := New(c.Graph, tb, cfg)
		g := c.Graph
		forceFig3Routes(c, tb)
		n.AddFlow(FlowSpec{Name: "green", Src: g.MustLookup("H9"), Dst: g.MustLookup("H1")})
		n.AddFlow(FlowSpec{Name: "blue", Src: g.MustLookup("H2"), Dst: g.MustLookup("H13"),
			Start: 2 * time.Millisecond})
		n.Run(25 * time.Millisecond)
		return n.Deadlocked()
	}
	if !form(0) {
		t.Error("Xon=0 should lock the Figure 3 CBD")
	}
	if form(32 << 10) {
		t.Error("generous Xon hysteresis should stabilize instead of locking")
	}
}

// TestTaggerImmuneAcrossRegimes: no PFC parameterization can deadlock a
// Tagger-protected fabric — the guarantee is structural, not tuned.
func TestTaggerImmuneAcrossRegimes(t *testing.T) {
	for _, xon := range []int64{0, 8 << 10, 32 << 10} {
		for _, dyn := range []bool{false, true} {
			c := paper.Testbed()
			tb := routing.ComputeToHosts(c.Graph, routing.UpDown)
			cfg := DefaultConfig()
			cfg.PFC.XonThreshold = xon
			cfg.DynamicThreshold = dyn
			n := New(c.Graph, tb, cfg)
			g := c.Graph
			forceFig3Routes(c, tb)
			n.InstallTagger(core.ClosRules(g, 1, 1))
			n.AddFlow(FlowSpec{Name: "green", Src: g.MustLookup("H9"), Dst: g.MustLookup("H1")})
			n.AddFlow(FlowSpec{Name: "blue", Src: g.MustLookup("H2"), Dst: g.MustLookup("H13"),
				Start: 2 * time.Millisecond})
			n.Run(15 * time.Millisecond)
			if n.Deadlocked() {
				t.Errorf("xon=%d dyn=%v: deadlock under Tagger", xon, dyn)
			}
			if d := n.Drops(); d.HeadroomViolation != 0 {
				t.Errorf("xon=%d dyn=%v: lossless drops %+v", xon, dyn, d)
			}
		}
	}
}

// TestRandomBounceScenariosNeverDeadlockUnderTagger is the failure-
// injection sweep: random pairs of 1-bounce pinned flows (drawn from the
// full KBounce ELP) at line rate, across seeds. Tagger must never
// deadlock and never drop lossless traffic; the same scenario without
// Tagger is allowed (and often does) deadlock.
func TestRandomBounceScenariosNeverDeadlockUnderTagger(t *testing.T) {
	c := paper.Testbed()
	g := c.Graph
	set := elp.KBounce(g, c.ToRs, 1, nil)
	var bouncy []routing.Path
	for _, p := range set.Paths() {
		if p.Bounces(g) == 1 {
			bouncy = append(bouncy, p)
		}
	}
	if len(bouncy) < 4 {
		t.Fatal("not enough bounce paths")
	}
	hostUnder := func(tor topology.NodeID, idx int) topology.NodeID {
		var hosts []topology.NodeID
		var nbuf []topology.NodeID
		nbuf = g.Neighbors(tor, nbuf)
		for _, nb := range nbuf {
			if g.Node(nb).Kind == topology.KindHost {
				hosts = append(hosts, nb)
			}
		}
		return hosts[idx%len(hosts)]
	}

	baselineDeadlocks := 0
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p1 := bouncy[rng.Intn(len(bouncy))]
		p2 := bouncy[rng.Intn(len(bouncy))]

		run := func(withTagger bool) *Network {
			tb := routing.ComputeToHosts(g, routing.UpDown)
			n := New(g, tb, DefaultConfig())
			if withTagger {
				n.InstallTagger(core.ClosRules(g, 1, 1))
			}
			for i, sp := range []routing.Path{p1, p2} {
				src := hostUnder(sp.Src(), i)
				dst := hostUnder(sp.Dst(), i+1)
				pin := append(routing.Path{src}, sp...)
				pin = append(pin, dst)
				n.AddFlow(FlowSpec{
					Name: fmt.Sprintf("f%d-%d", seed, i), Src: src, Dst: dst,
					Pin: pin, Start: time.Duration(i) * time.Millisecond,
				})
			}
			n.Run(12 * time.Millisecond)
			return n
		}

		tagged := run(true)
		if tagged.Deadlocked() {
			t.Fatalf("seed %d: deadlock under Tagger (paths %s / %s)",
				seed, p1.String(g), p2.String(g))
		}
		if d := tagged.Drops(); d.HeadroomViolation+d.LossyOverflow != 0 {
			t.Errorf("seed %d: drops under Tagger: %+v", seed, d)
		}
		if run(false).Deadlocked() {
			baselineDeadlocks++
		}
	}
	t.Logf("baseline deadlocked in %d/8 random scenarios", baselineDeadlocks)
	if baselineDeadlocks == 0 {
		t.Log("note: no random baseline deadlocked this sweep; Fig 3's pairing is the reliable one")
	}
}

// TestLargerClosPermutation sanity-checks simulator scale: a 3-pod Clos
// with 36 hosts under a full permutation stays lossless and busy.
func TestLargerClosPermutation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	c, err := topology.NewClos(topology.ClosConfig{
		Pods: 3, ToRsPerPod: 2, LeafsPerPod: 2, Spines: 4, HostsPerToR: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := c.Graph
	tb := routing.ComputeToHosts(g, routing.UpDown)
	n := New(g, tb, DefaultConfig())
	n.InstallTagger(core.ClosRules(g, 1, 1))
	hosts := c.Hosts
	for i := range hosts {
		n.AddFlow(FlowSpec{
			Name: fmt.Sprintf("p%d", i),
			Src:  hosts[i], Dst: hosts[(i+len(hosts)/2)%len(hosts)],
		})
	}
	n.Run(8 * time.Millisecond)
	if n.Deadlocked() {
		t.Fatal("permutation deadlocked")
	}
	if d := n.Drops(); d.Total() != 0 {
		t.Fatalf("drops: %+v", d)
	}
	var agg float64
	for _, f := range n.flows {
		agg += f.MeanGbps(4*time.Millisecond, 8*time.Millisecond)
	}
	if agg < 100 {
		t.Errorf("aggregate = %.1f Gbps over 36 hosts, suspiciously low", agg)
	}
}
