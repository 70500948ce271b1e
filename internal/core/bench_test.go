package core

import (
	"testing"

	"repro/internal/elp"
	"repro/internal/paper"
	"repro/internal/topology"
)

func BenchmarkBruteForceTestbed(b *testing.B) {
	c := paper.Testbed()
	set := elp.KBounce(c.Graph, c.ToRs, 1, nil)
	paths := set.Paths()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BruteForceN(c.Graph, paths, 1)
	}
}

func BenchmarkVerifyLargeGraph(b *testing.B) {
	j, err := topology.NewJellyfish(topology.JellyfishConfig{Switches: 100, Ports: 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	set := elp.ShortestAll(j.Graph, j.Switches)
	sys, err := Synthesize(j.Graph, set.Paths(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Runtime.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClassify(b *testing.B) {
	c := paper.Testbed()
	g := c.Graph
	rs := ClosRules(g, 1, 1)
	l1 := g.MustLookup("L1")
	in := g.PortToPeer(l1, g.MustLookup("S2"))
	out := g.PortToPeer(l1, g.MustLookup("S1"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rs.Classify(l1, 1, in, out) != 2 {
			b.Fatal("wrong classification")
		}
	}
}

func BenchmarkReplayPath(b *testing.B) {
	c := paper.Testbed()
	rs := ClosRules(c.Graph, 1, 1)
	p := paper.Fig3GreenPath(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !rs.Replay(p, 1).Lossless {
			b.Fatal("lossy")
		}
	}
}
