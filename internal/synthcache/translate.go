package synthcache

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fingerprint"
	"repro/internal/routing"
	"repro/internal/tcam"
	"repro/internal/topology"
)

// permFromCanons maps producer node IDs to consumer node IDs through the
// shared canonical order. Equal fingerprints guarantee this position-wise
// map is an isomorphism preserving kinds, layers and port numbers (see
// internal/fingerprint), which is what makes translated rules exact:
// rules match on (switch, tag, port numbers) and port numbers are
// invariant under the map.
func permFromCanons(prod, cons *fingerprint.Canon) []topology.NodeID {
	out := make([]topology.NodeID, len(prod.Order))
	for pos, id := range prod.Order {
		out[id] = cons.Order[pos]
	}
	return out
}

// translateEntry rebuilds a cached system over the caller's graph by
// relabeling switches through the canonical orders, then re-replays and
// re-verifies over the caller's own paths. Cheap relative to synthesis:
// Algorithms 1+2 and TCAM compression are skipped entirely. It declines
// (errUntranslatable) when the producer carries conflict/repair state the
// relabeling does not model.
func translateEntry(e *entry, g *topology.Graph, canon *fingerprint.Canon,
	paths []routing.Path) (*core.System, *tcam.Compiled, error) {

	src := e.sys
	if len(src.Conflicts) > 0 || len(src.Repairs) > 0 {
		return nil, nil, errUntranslatable
	}
	perm := permFromCanons(e.canon, canon)
	rs := core.NewRuleset(g, src.Rules.MaxTag())
	for _, r := range src.Rules.Rules() {
		r.Switch = perm[r.Switch]
		if _, conflicted := rs.Add(r); conflicted {
			return nil, nil, errUntranslatable
		}
	}
	runtime, violations := core.BuildRuleGraph(rs, paths, 1)
	if len(violations) > 0 {
		return nil, nil, fmt.Errorf("synthcache: translated rules leave %d ELP paths lossy", len(violations))
	}
	if err := runtime.Verify(); err != nil {
		return nil, nil, fmt.Errorf("synthcache: translated runtime graph: %w", err)
	}
	rs.RuleByID(0) // pre-warm the sorted-key memo before the result is shared
	image := translateImage(e.image, e.g, rs, perm)
	return &core.System{Graph: g, ELP: paths, Rules: rs, Runtime: runtime}, image, nil
}

// translateImage relabels a compiled TCAM image switch-by-switch. Port
// bitmaps carry over verbatim — the isomorphism preserves port numbers —
// and per-switch entry order (TCAM priority order) is kept intact.
func translateImage(src *tcam.Compiled, srcGraph *topology.Graph,
	rs *core.Ruleset, perm []topology.NodeID) *tcam.Compiled {

	entries := make([]tcam.Entry, 0, src.TotalEntries())
	for _, sw := range srcGraph.Switches() {
		for _, en := range src.Entries(sw) {
			en.Switch = perm[sw]
			entries = append(entries, en)
		}
	}
	return tcam.CompiledFromEntries(rs, entries)
}
