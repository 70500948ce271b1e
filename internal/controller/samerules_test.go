package controller

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/deploy"
)

// oracleSameRules is sameRules as it was when it keyed the multiset on a
// formatted string, kept verbatim as the reference.
func oracleSameRules(a, b []deploy.RuleJSON) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(r deploy.RuleJSON) string {
		return fmt.Sprintf("%d/%d/%d>%d", r.Tag, r.In, r.Out, r.NewTag)
	}
	set := make(map[string]int, len(a))
	for _, r := range a {
		set[key(r)]++
	}
	for _, r := range b {
		set[key(r)]--
		if set[key(r)] < 0 {
			return false
		}
	}
	return true
}

// TestSameRulesAgreesWithStringKeyedOracle compares a wanted table with
// every kind of readback the staged-verify step can see: identical,
// reordered, partially landed, one field off, and with duplicates whose
// multiplicity does or does not match.
func TestSameRulesAgreesWithStringKeyedOracle(t *testing.T) {
	verdicts := map[bool]int{}
	for seed := int64(1); seed <= 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		want := make([]deploy.RuleJSON, rng.Intn(30))
		for i := range want {
			want[i] = deploy.RuleJSON{Tag: 1 + rng.Intn(3), In: rng.Intn(3), Out: rng.Intn(3), NewTag: 1 + rng.Intn(3)}
		}
		got := append([]deploy.RuleJSON(nil), want...)
		switch seed % 6 {
		case 0: // untouched readback
		case 1:
			rng.Shuffle(len(got), func(i, j int) { got[i], got[j] = got[j], got[i] })
		case 2: // partial install: a prefix landed
			got = got[:len(got)/2]
		case 3: // same length, one rewrite differs
			if len(got) > 0 {
				got[rng.Intn(len(got))].NewTag += 7
			}
		case 4: // same length, one rule replaced by a copy of another
			if len(got) > 1 {
				got[0] = got[len(got)-1]
			}
			rng.Shuffle(len(got), func(i, j int) { got[i], got[j] = got[j], got[i] })
		case 5: // reordered with a difference
			rng.Shuffle(len(got), func(i, j int) { got[i], got[j] = got[j], got[i] })
			if len(got) > 0 {
				got[0].Out += 9
			}
		}
		g, w := sameRules(got, want), oracleSameRules(got, want)
		if g != w {
			t.Fatalf("seed %d: sameRules = %v, oracle %v\n got  %v\n want %v", seed, g, w, got, want)
		}
		if sameRules(want, got) != g {
			t.Fatalf("seed %d: sameRules is not symmetric", seed)
		}
		verdicts[g]++
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("streams exercised only one verdict: %v", verdicts)
	}
}
