package check

import "testing"

// FuzzRunCase is the native entry point to the differential battery: Go's
// fuzzer mutates (family selector, seed), GenCase maps them into a
// bounded topology + ELP instance, and RunCase cross-checks every layer.
// Any reported input IS a failing Case — re-derive it with GenCase and
// hand it to Shrink/ReproSource (what cmd/taggerfuzz automates).
func FuzzRunCase(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		for idx := range Topos() {
			f.Add(uint8(idx), seed)
		}
	}
	topos := Topos()
	f.Fuzz(func(t *testing.T, topoIdx uint8, seed int64) {
		c := GenCase(topos[int(topoIdx)%len(topos)], seed)
		if !c.validConfig() {
			t.Fatalf("GenCase emitted an invalid config: %s", c)
		}
		if err := RunCase(c); err != nil {
			t.Fatalf("differential failure (shrink with: taggerfuzz -topo %s -seed %d -seeds 1): %v",
				c.Topo, c.Seed, err)
		}
	})
}

// FuzzShrinkConvergence: for synthetic threshold predicates on every
// mode and family — the family's first knob at least famFloor steps above
// its floor, the mode's first knob at least ownFloor above its own — the
// shrinker must terminate, keep the case failing, never grow it, never
// probe an invalid configuration, and stop at greedy minimality: no knob
// can drop to its floor or by one and still fail.
func FuzzShrinkConvergence(f *testing.F) {
	f.Add(int64(7), 3, 4)
	f.Add(int64(11), 1, 0)
	f.Add(int64(7), 1, 2)
	f.Fuzz(func(t *testing.T, seed int64, famFloor, ownFloor int) {
		if famFloor < 1 || famFloor > 4 || ownFloor < 0 || ownFloor > 6 {
			t.Skip()
		}
		for m := range modes {
			for _, topo := range Mode(m).Topos() {
				c := Mode(m).Gen(topo, seed)
				ks := c.knobs()
				fam, own := ks[0], ks[len(familyKnobs[topo])]
				famMin, ownMin := fam.floor+famFloor-1, own.floor+ownFloor
				*c.at(fam), *c.at(own) = max(*c.at(fam), famMin), max(*c.at(own), ownMin)
				if !c.validConfig() {
					continue // e.g. an odd fat-tree arity
				}
				fails := func(c Case) bool {
					if !c.validConfig() {
						t.Fatalf("invalid probe: %s", c)
					}
					return *c.at(fam) >= famMin && *c.at(own) >= ownMin
				}
				got := Shrink(c, fails)
				if !fails(got) {
					t.Fatalf("shrunk case stopped failing: %s", got)
				}
				for _, k := range ks {
					if *got.at(k) > *c.at(k) {
						t.Fatalf("shrinker grew %s: %s -> %s", k.label, c, got)
					}
					for _, v := range []int{k.floor, *got.at(k) - 1} {
						if v < k.floor || v >= *got.at(k) {
							continue
						}
						cand := got
						*cand.at(k) = v
						if cand.validConfig() && fails(cand) {
							t.Fatalf("not minimal: %s still fails with %s=%d", got, k.label, v)
						}
					}
				}
			}
		}
	})
}
