package elp

import (
	"testing"

	"repro/internal/topology"
)

func BenchmarkKBounceTestbed(b *testing.B) {
	c, err := topology.NewClos(topology.PaperTestbed())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if KBounce(c.Graph, c.ToRs, 1, nil).Len() == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkShortestAllJellyfish100(b *testing.B) {
	j, err := topology.NewJellyfish(topology.JellyfishConfig{Switches: 100, Ports: 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ShortestAll(j.Graph, j.Switches).Len() == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkBCubeELP(b *testing.B) {
	bc, err := topology.NewBCube(4, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if BCubeELP(bc, nil).Len() == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkSetAdd is one validated, deduplicating insert into a reserved
// set: hash, probe, LoopFree and Valid, no allocation. The set is refilled
// from Jellyfish-200's shortest paths with the clock stopped.
func BenchmarkSetAdd(b *testing.B) {
	j, err := topology.NewJellyfish(topology.JellyfishConfig{Switches: 200, Ports: 24, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	paths := ShortestAll(j.Graph, j.Switches).Paths()
	var s *Set
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(paths)
		if k == 0 {
			b.StopTimer()
			s = NewSet()
			s.Reserve(len(paths))
			b.StartTimer()
		}
		if err := s.Add(j.Graph, paths[k]); err != nil {
			b.Fatal(err)
		}
	}
}
