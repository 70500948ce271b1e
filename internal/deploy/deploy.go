// Package deploy serializes a synthesized Tagger system into the bundle
// an operator (or the SDN controller of §6) pushes to switches, and
// computes the rule diffs topology changes require. The format is plain
// JSON keyed by switch name, stable across runs, so bundles can be
// version-controlled and diffed like any other network config.
package deploy

import (
	"cmp"
	"encoding/json"
	"fmt"
	"maps"
	"slices"

	"repro/internal/core"
	"repro/internal/topology"
)

// RuleJSON is one match-action entry in the bundle.
type RuleJSON struct {
	Tag    int `json:"tag"`
	In     int `json:"in"`
	Out    int `json:"out"`
	NewTag int `json:"newTag"`
}

// SwitchBundle is everything one switch needs.
type SwitchBundle struct {
	Rules []RuleJSON `json:"rules"`
}

// Bundle is the fabric-wide deployment artifact.
type Bundle struct {
	// MaxTag is the largest lossless tag; switches map tags 1..MaxTag to
	// lossless priorities and everything else to the lossy queue.
	MaxTag int `json:"maxTag"`
	// Switches maps switch name to its rules.
	Switches map[string]SwitchBundle `json:"switches"`
}

// Export converts a ruleset into a bundle.
func Export(rs *core.Ruleset) *Bundle {
	g := rs.Graph()
	b := &Bundle{MaxTag: rs.MaxTag(), Switches: make(map[string]SwitchBundle)}
	// Rules() order is switch-major with (tag, in, out) ascending inside
	// a switch, so each switch's table is one run, already in canonical
	// order: walk the rows once and carve the runs out of a single
	// backing array.
	all := make([]RuleJSON, 0, rs.Len())
	lo, sw := 0, topology.InvalidNode
	cut := func() {
		if len(all) > lo {
			b.Switches[g.Node(sw).Name] = SwitchBundle{Rules: all[lo:len(all):len(all)]}
		}
		lo = len(all)
	}
	rs.Each(func(r core.Rule) {
		if r.Switch != sw {
			cut()
			sw = r.Switch
		}
		all = append(all, RuleJSON{Tag: r.Tag, In: r.In, Out: r.Out, NewTag: r.NewTag})
	})
	cut()
	return b
}

// Marshal renders the bundle as deterministic, indented JSON: every
// switch's rules in canonical (tag, in, out) order. The bundle itself is
// never modified — agents and parallel push workers may be holding its
// rule slices — so a table that arrives out of order (never after
// Export) is sorted in a copy.
func (b *Bundle) Marshal() ([]byte, error) {
	out := b
	for name, sb := range b.Switches {
		if slices.IsSortedFunc(sb.Rules, compareMatch) {
			continue
		}
		if out == b {
			out = &Bundle{MaxTag: b.MaxTag, Switches: maps.Clone(b.Switches)}
		}
		sorted := slices.Clone(sb.Rules)
		sortRules(sorted)
		out.Switches[name] = SwitchBundle{Rules: sorted}
	}
	return json.MarshalIndent(out, "", "  ")
}

// Unmarshal parses a bundle.
func Unmarshal(data []byte) (*Bundle, error) {
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	return &b, nil
}

// maxTagValue bounds every tag a bundle may name: core packs a rule's
// match tag into 8 bits, and a rewrite becomes the next hop's match.
const maxTagValue = 1<<8 - 1

// Import reconstructs a ruleset over the given topology. A bundle is
// external input: switch names must resolve (an unknown name means the
// bundle belongs to a different fabric), a rule must match a lossless tag
// (1..MaxTag) and rewrite to one or to the lossy tag (0..MaxTag) — a
// rule matching the lossy tag would re-promote lossy packets wherever a
// switch consults its TCAM before the once-lossy-always-lossy default —
// port numbers must exist on the named switch, and a switch may not hold
// two rules for one match. Anything else is an error, never a panic.
func Import(g *topology.Graph, b *Bundle) (*core.Ruleset, error) {
	if b.MaxTag < 0 || b.MaxTag > maxTagValue {
		return nil, fmt.Errorf("deploy: bundle maxTag %d outside 0..%d", b.MaxTag, maxTagValue)
	}
	rs := core.NewRuleset(g, b.MaxTag)
	for name, sb := range b.Switches {
		id, ok := g.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("deploy: bundle references unknown switch %q", name)
		}
		ports, before := g.PortCount(id), rs.Len()
		for _, r := range sb.Rules {
			if r.Tag < 1 || r.Tag > b.MaxTag || r.NewTag < 0 || r.NewTag > b.MaxTag {
				return nil, fmt.Errorf("deploy: switch %q rule %+v: tag outside 1..%d or rewrite outside 0..%[3]d", name, r, b.MaxTag)
			}
			if r.In < 0 || r.In >= ports || r.Out < 0 || r.Out >= ports {
				return nil, fmt.Errorf("deploy: switch %q rule %+v: port outside the switch's %d", name, r, ports)
			}
			rs.Add(core.Rule{Switch: id, Tag: r.Tag, In: r.In, Out: r.Out, NewTag: r.NewTag})
		}
		if rs.Len() != before+len(sb.Rules) {
			return nil, fmt.Errorf("deploy: switch %q holds two rules for one (tag, in, out) match", name)
		}
	}
	return rs, nil
}

// ModifiedRule records a rewrite change for an existing match: the entry
// carries the new NewTag, OldNewTag what it replaced.
type ModifiedRule struct {
	RuleJSON
	OldNewTag int
}

// SwitchDiff lists the rule changes one switch needs, classified by
// match key (tag, in, out): entries whose match is new are Added, gone
// matches are Removed, and matches whose rewrite changed are Modified.
// It doubles as the wire-level patch a delta-capable agent applies to a
// switch's active table (see ApplyDelta).
type SwitchDiff struct {
	Added    []RuleJSON
	Removed  []RuleJSON
	Modified []ModifiedRule
}

// Empty reports whether the switch needs no changes.
func (d SwitchDiff) Empty() bool {
	return len(d.Added) == 0 && len(d.Removed) == 0 && len(d.Modified) == 0
}

// Counts returns the number of added, removed, and modified rules.
func (d SwitchDiff) Counts() (added, removed, modified int) {
	return len(d.Added), len(d.Removed), len(d.Modified)
}

// match identifies a rule by its match fields only.
type match struct{ Tag, In, Out int }

func matchKey(r RuleJSON) match { return match{r.Tag, r.In, r.Out} }

// compareMatch orders rules by (tag, in, out), the canonical table order.
func compareMatch(a, b RuleJSON) int {
	return cmp.Or(cmp.Compare(a.Tag, b.Tag), cmp.Compare(a.In, b.In), cmp.Compare(a.Out, b.Out))
}

// DeltaFor computes the patch turning one switch's table `from` into
// `to`, in canonical (sorted) order.
func DeltaFor(from, to SwitchBundle) SwitchDiff {
	fromSet := make(map[match]RuleJSON, len(from.Rules))
	for _, r := range from.Rules {
		fromSet[matchKey(r)] = r
	}
	toSet := make(map[match]RuleJSON, len(to.Rules))
	for _, r := range to.Rules {
		toSet[matchKey(r)] = r
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
	sortRules(d.Added)
	sortRules(d.Removed)
	slices.SortFunc(d.Modified, func(a, b ModifiedRule) int { return compareMatch(a.RuleJSON, b.RuleJSON) })
	return d
}

// ApplyDelta applies a patch to a switch table and returns the result in
// canonical order. Removals match on (tag, in, out) only; adds and
// modifies both install their NewTag, so applying the same delta twice is
// idempotent (the agent-retry property the controller relies on).
func ApplyDelta(from SwitchBundle, d SwitchDiff) SwitchBundle {
	set := make(map[match]RuleJSON, len(from.Rules)+len(d.Added))
	for _, r := range from.Rules {
		set[matchKey(r)] = r
	}
	for _, r := range d.Removed {
		delete(set, matchKey(r))
	}
	for _, r := range d.Added {
		set[matchKey(r)] = r
	}
	for _, m := range d.Modified {
		set[matchKey(m.RuleJSON)] = m.RuleJSON
	}
	out := SwitchBundle{Rules: make([]RuleJSON, 0, len(set))}
	for _, r := range set {
		out.Rules = append(out.Rules, r)
	}
	sortRules(out.Rules)
	return out
}

// Diff computes per-switch changes from old to new bundle. Switches
// absent from a side are treated as having no rules there.
func Diff(oldB, newB *Bundle) map[string]SwitchDiff {
	out := make(map[string]SwitchDiff)
	names := map[string]bool{}
	for n := range oldB.Switches {
		names[n] = true
	}
	for n := range newB.Switches {
		names[n] = true
	}
	for n := range names {
		if d := DeltaFor(oldB.Switches[n], newB.Switches[n]); !d.Empty() {
			out[n] = d
		}
	}
	return out
}

func sortRules(rs []RuleJSON) { slices.SortFunc(rs, compareMatch) }
