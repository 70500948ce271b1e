package deploy

import (
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Group is a set of switches whose per-switch bundles are rule-identical
// (order-insensitively), so a fan-out push can treat them as one batch:
// the same serialized bundle body, sent to every member.
type Group struct {
	// Switches holds the member names, sorted.
	Switches []string
	// Rules is the shared rule count (0 for an empty bundle).
	Rules int
}

// GroupIdentical partitions the given switches by bundle content. On the
// symmetric fabrics Tagger targets, most switches of a layer share one
// rule list (Clos bounce rules are identical across same-shape switches),
// which collapses a thousand-switch push into a handful of distinct
// bundle bodies. Groups come back ordered by their first (smallest)
// member name; membership order inside a group is sorted, so the result
// is deterministic for a fixed bundle.
func GroupIdentical(b *Bundle, switches []string) []Group {
	byKey := make(map[string][]string)
	for _, sw := range switches {
		k := ruleKey(b.Switches[sw])
		byKey[k] = append(byKey[k], sw)
	}
	groups := make([]Group, 0, len(byKey))
	for k, members := range byKey {
		sort.Strings(members)
		groups = append(groups, Group{Switches: members, Rules: strings.Count(k, ";")})
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].Switches[0] < groups[j].Switches[0] })
	return groups
}

// ruleKey canonicalizes a switch bundle's content: rules sorted by
// (tag, in, out), serialized. Two bundles with equal keys install the
// same forwarding behavior.
func ruleKey(b SwitchBundle) string {
	rs := b.Rules
	if !slices.IsSortedFunc(rs, compareMatch) {
		rs = slices.Clone(rs)
		sortRules(rs)
	}
	buf := make([]byte, 0, len(rs)*16)
	for _, r := range rs {
		buf = strconv.AppendInt(buf, int64(r.Tag), 10)
		buf = append(buf, '/')
		buf = strconv.AppendInt(buf, int64(r.In), 10)
		buf = append(buf, '/')
		buf = strconv.AppendInt(buf, int64(r.Out), 10)
		buf = append(buf, '>')
		buf = strconv.AppendInt(buf, int64(r.NewTag), 10)
		buf = append(buf, ';')
	}
	return string(buf)
}
