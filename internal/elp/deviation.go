package elp

import (
	"math/rand"

	"repro/internal/routing"
	"repro/internal/topology"
)

// DeviationPaths returns up to count seeded random loop-free paths that
// are NOT in base — routes a packet could actually take after a link
// failure or routing reconvergence pushed it off the expected lossless
// paths. The verification harness (internal/check) replays them through
// the compiled TCAM pipelines to confirm both tables agree on demoting
// strays to the lossy queue; the simulator uses the same notion when it
// reroutes around failures.
//
// Interior nodes are never plain hosts (hosts do not forward), endpoints
// are drawn from the given set, and generation is deterministic per
// seed. Fewer than count paths are returned when the topology is too
// small to yield enough distinct off-ELP routes.
func DeviationPaths(g *topology.Graph, base *Set, endpoints []topology.NodeID, count, maxHops int, seed int64) []routing.Path {
	if len(endpoints) < 2 || count <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	var out routing.PathIndex
	var nbuf []topology.NodeID
	for attempts := 0; out.Len() < count && attempts < count*50; attempts++ {
		a := endpoints[rng.Intn(len(endpoints))]
		b := endpoints[rng.Intn(len(endpoints))]
		if a == b {
			continue
		}
		p := randomSimplePath(g, a, b, maxHops, rng, &nbuf)
		if p == nil {
			continue
		}
		if base != nil && base.Contains(p) {
			continue
		}
		out.Add(p)
	}
	return out.Paths()
}
