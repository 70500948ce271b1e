package check

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/elp"
	"repro/internal/topology"
)

// kbounceTopos are the families whose ELP is the k-bounce enumeration.
var kbounceTopos = []string{"clos", "fattree"}

// kbounceOracle holds the k-bounce enumerator's List, which the pod
// stamper replays and stamps unchecked, to what the enumerator claims
// by construction: every path passes a fresh elp.Set's Add (non-empty,
// loop-free, each hop adjacent), and none is emitted twice. It runs c's
// fabric at bounce budgets 0, 1 and 2, intact and with failed switch
// links, with every switch as a junction and with a seeded via list
// drawn with replacement (a random subset, in random order, with
// repeats). At k = 2 it enumerates from the roster's first source only:
// the whole 2-bounce ELP of a k=6 fat-tree is 16.8 M paths.
func kbounceOracle(c Case) error {
	for k := 0; k <= 2; k++ {
		for _, failed := range []bool{false, true} {
			for _, subset := range []bool{false, true} {
				arm := fmt.Sprintf("%s k=%d failed=%v via-subset=%v", c, k, failed, subset)
				f, err := c.build()
				if err != nil {
					return fmt.Errorf("check: building %s: %w", c, err)
				}
				if failed {
					fc := c
					fc.FailLinks = 1 + int(uint64(c.Seed)%2)
					fc.failSome(f)
				}
				var via []topology.NodeID
				if subset {
					rng := rand.New(rand.NewSource(c.Seed + int64(k)))
					sw := f.g.Switches()
					for range sw {
						via = append(via, sw[rng.Intn(len(sw))])
					}
				}
				e := elp.NewKBounceEnumerator(f.g, k, via)
				if k < 2 {
					e.From(f.endpoints, f.endpoints)
				} else {
					e.From(f.endpoints[:1], f.endpoints)
				}
				paths := e.List.Views()
				if k == 0 && !failed && !subset && len(paths) == 0 {
					return fmt.Errorf("%s: empty enumeration", arm)
				}
				fresh := elp.NewSet()
				fresh.Reserve(len(paths))
				for _, p := range paths {
					if err := fresh.Add(f.g, p); err != nil {
						return fmt.Errorf("%s: %w", arm, err)
					}
				}
				if fresh.Len() != len(paths) {
					return fmt.Errorf("%s: %d paths emitted, %d distinct", arm, len(paths), fresh.Len())
				}
			}
		}
	}
	return nil
}

// TestKBounceOracle runs the oracle over the first GenCase seeds of each
// k-bounce family.
func TestKBounceOracle(t *testing.T) {
	for _, topo := range kbounceTopos {
		for seed := int64(1); seed <= 6; seed++ {
			if err := kbounceOracle(GenCase(topo, seed)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// FuzzKBounceOracle is the oracle as a native fuzz target: the fuzzer
// mutates (family selector, seed) and GenCase maps them to a fabric.
func FuzzKBounceOracle(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		for idx := range kbounceTopos {
			f.Add(uint8(idx), seed)
		}
	}
	f.Fuzz(func(t *testing.T, topoIdx uint8, seed int64) {
		if err := kbounceOracle(GenCase(kbounceTopos[int(topoIdx)%len(kbounceTopos)], seed)); err != nil {
			t.Fatal(err)
		}
	})
}
