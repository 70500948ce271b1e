package deploy

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// The string-keyed implementations DeltaFor and ApplyDelta had before
// they were keyed on the comparable match struct, kept verbatim as the
// oracle for the property tests below.

func oracleMatchKey(r RuleJSON) string { return fmt.Sprintf("%d/%d/%d", r.Tag, r.In, r.Out) }

func oracleSortRules(rs []RuleJSON) {
	sort.Slice(rs, func(i, j int) bool {
		a, c := rs[i], rs[j]
		if a.Tag != c.Tag {
			return a.Tag < c.Tag
		}
		if a.In != c.In {
			return a.In < c.In
		}
		return a.Out < c.Out
	})
}

func oracleDeltaFor(from, to SwitchBundle) SwitchDiff {
	fromSet := make(map[string]RuleJSON, len(from.Rules))
	for _, r := range from.Rules {
		fromSet[oracleMatchKey(r)] = r
	}
	toSet := make(map[string]RuleJSON, len(to.Rules))
	for _, r := range to.Rules {
		toSet[oracleMatchKey(r)] = r
	}
	var d SwitchDiff
	for k, r := range toSet {
		prev, ok := fromSet[k]
		switch {
		case !ok:
			d.Added = append(d.Added, r)
		case prev.NewTag != r.NewTag:
			d.Modified = append(d.Modified, ModifiedRule{RuleJSON: r, OldNewTag: prev.NewTag})
		}
	}
	for k, r := range fromSet {
		if _, ok := toSet[k]; !ok {
			d.Removed = append(d.Removed, r)
		}
	}
	oracleSortRules(d.Added)
	oracleSortRules(d.Removed)
	sort.Slice(d.Modified, func(i, j int) bool {
		a, c := d.Modified[i].RuleJSON, d.Modified[j].RuleJSON
		if a.Tag != c.Tag {
			return a.Tag < c.Tag
		}
		if a.In != c.In {
			return a.In < c.In
		}
		return a.Out < c.Out
	})
	return d
}

func oracleApplyDelta(from SwitchBundle, d SwitchDiff) SwitchBundle {
	set := make(map[string]RuleJSON, len(from.Rules)+len(d.Added))
	for _, r := range from.Rules {
		set[oracleMatchKey(r)] = r
	}
	for _, r := range d.Removed {
		delete(set, oracleMatchKey(r))
	}
	for _, r := range d.Added {
		set[oracleMatchKey(r)] = r
	}
	for _, m := range d.Modified {
		set[oracleMatchKey(m.RuleJSON)] = m.RuleJSON
	}
	out := SwitchBundle{Rules: make([]RuleJSON, 0, len(set))}
	for _, r := range set {
		out.Rules = append(out.Rules, r)
	}
	oracleSortRules(out.Rules)
	return out
}

// randomTable draws a table with distinct matches (the form every real
// table has: a duplicated match makes the winner depend on map order in
// the oracle and the implementation alike) from a small field range, so
// two draws share many matches, then shuffles it.
func randomTable(rng *rand.Rand) SwitchBundle {
	seen := map[match]bool{}
	var rules []RuleJSON
	for n := rng.Intn(40); len(rules) < n; {
		r := RuleJSON{Tag: 1 + rng.Intn(3), In: rng.Intn(4), Out: rng.Intn(4), NewTag: 1 + rng.Intn(3)}
		if !seen[matchKey(r)] {
			seen[matchKey(r)] = true
			rules = append(rules, r)
		}
	}
	rng.Shuffle(len(rules), func(i, j int) { rules[i], rules[j] = rules[j], rules[i] })
	return SwitchBundle{Rules: rules}
}

func TestDeltaAndApplyAgreeWithStringKeyedOracle(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		from, to := randomTable(rng), randomTable(rng)
		if seed%5 == 0 {
			// A partially landed table: a prefix of the target.
			from = SwitchBundle{Rules: append([]RuleJSON(nil), to.Rules[:len(to.Rules)/2]...)}
		}
		got, want := DeltaFor(from, to), oracleDeltaFor(from, to)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: DeltaFor = %+v, oracle %+v", seed, got, want)
		}
		applied, wantApplied := ApplyDelta(from, got), oracleApplyDelta(from, want)
		if !reflect.DeepEqual(applied, wantApplied) {
			t.Fatalf("seed %d: ApplyDelta = %+v, oracle %+v", seed, applied, wantApplied)
		}
		if again := ApplyDelta(applied, got); !reflect.DeepEqual(again, applied) {
			t.Fatalf("seed %d: applying the delta twice moved the table", seed)
		}
		if d := DeltaFor(applied, to); !d.Empty() {
			t.Fatalf("seed %d: applied table still differs from its target: %+v", seed, d)
		}
		// A delta unrelated to the table it lands on (stale removes,
		// adds over present matches) must resolve as the oracle does.
		stray := DeltaFor(randomTable(rng), randomTable(rng))
		if a, w := ApplyDelta(from, stray), oracleApplyDelta(from, stray); !reflect.DeepEqual(a, w) {
			t.Fatalf("seed %d: stray ApplyDelta = %+v, oracle %+v", seed, a, w)
		}
	}
}

// TestDeltaForDuplicatedMatches: with a match listed twice the last
// entry wins on both sides, as it did under string keys.
func TestDeltaForDuplicatedMatches(t *testing.T) {
	from := sb(RuleJSON{1, 0, 1, 1}, RuleJSON{1, 0, 1, 2})
	to := sb(RuleJSON{1, 0, 1, 3}, RuleJSON{1, 0, 1, 2}, RuleJSON{1, 0, 1, 2})
	if d := DeltaFor(from, to); !d.Empty() || !reflect.DeepEqual(d, oracleDeltaFor(from, to)) {
		t.Fatalf("duplicated matches resolved differently from last-wins: %+v", d)
	}
}
