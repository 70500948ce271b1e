package routing

import (
	"testing"

	"repro/internal/topology"
)

func benchGraph(b *testing.B) *topology.Clos {
	b.Helper()
	c, err := topology.NewClos(topology.ClosConfig{
		Pods: 4, ToRsPerPod: 4, LeafsPerPod: 4, Spines: 8, HostsPerToR: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func BenchmarkShortestPath(b *testing.B) {
	c := benchGraph(b)
	g := c.Graph
	src, dst := c.Hosts[0], c.Hosts[len(c.Hosts)-1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ShortestPath(g, src, dst) == nil {
			b.Fatal("no path")
		}
	}
}

func BenchmarkUpDownPaths(b *testing.B) {
	c := benchGraph(b)
	g := c.Graph
	src, dst := c.ToRs[0], c.ToRs[len(c.ToRs)-1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(NewSegments(g).Between(src, dst, false)) == 0 {
			b.Fatal("no paths")
		}
	}
}

func BenchmarkComputeToHostsUpDown(b *testing.B) {
	c := benchGraph(b)
	for i := 0; i < b.N; i++ {
		ComputeToHosts(c.Graph, UpDown)
	}
}

func BenchmarkRouteWalk(b *testing.B) {
	c := benchGraph(b)
	tb := ComputeToHosts(c.Graph, UpDown)
	src, dst := c.Hosts[0], c.Hosts[len(c.Hosts)-1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := route(tb, src, dst, uint64(i))
		if !res.Reached {
			b.Fatal("unreached")
		}
	}
}
