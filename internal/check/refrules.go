package check

import (
	"sort"

	"repro/internal/core"
	"repro/internal/topology"
)

// This file makes naiveTable a reference for core.Ruleset's whole rule
// table, not just its classifier: a map from match to rewrite, sorted on
// demand. It shares nothing with core's dense rows, so a differential run
// of the two under the same Add sequence checks the row layout.

// add installs r as core.Ruleset.Add does: the new rewrite replaces an
// installed one, which is returned with conflicted=true when it differed,
// and a rewrite above the lossless range raises it.
func (t *naiveTable) add(r core.Rule) (old int, conflicted bool) {
	k := naiveKey{r.Switch, r.Tag, r.In, r.Out}
	prev, had := t.rules[k]
	t.rules[k] = r.NewTag
	if r.NewTag > t.maxTag {
		t.maxTag = r.NewTag
	}
	if had && prev != r.NewTag {
		return prev, true
	}
	return 0, false
}

// lookup is the exact-match rewrite for (sw, tag, in, out).
func (t *naiveTable) lookup(sw topology.NodeID, tag, in, out int) (int, bool) {
	nt, ok := t.rules[naiveKey{sw, tag, in, out}]
	return nt, ok
}

// sortedRules returns the installed rules of the nodes keep admits, in
// ascending (switch, tag, in, out) order.
func (t *naiveTable) sortedRules(keep func(topology.NodeID) bool) []core.Rule {
	var out []core.Rule
	for k, nt := range t.rules {
		if keep(k.sw) {
			out = append(out, core.Rule{Switch: k.sw, Tag: k.tag, In: k.in, Out: k.out, NewTag: nt})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		switch {
		case a.Switch != b.Switch:
			return a.Switch < b.Switch
		case a.Tag != b.Tag:
			return a.Tag < b.Tag
		case a.In != b.In:
			return a.In < b.In
		default:
			return a.Out < b.Out
		}
	})
	return out
}
