package tcam

import (
	"sort"

	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// Entry is one compressed TCAM entry: it fires when the packet's tag
// equals Tag, its ingress port is in InPorts and its egress port is in
// OutPorts (the pattern/mask pairs of Figure 9), and rewrites the tag to
// NewTag. A compressed entry is semantically the cross product
// InPorts x OutPorts of uncompressed rules, so compression is lossless
// only when the grouped rules form exact cross products — the compressor
// guarantees that.
type Entry struct {
	Switch   topology.NodeID
	Tag      int
	InPorts  Bitmap
	OutPorts Bitmap
	NewTag   int
}

// Matches reports whether the entry fires for (tag, in, out).
func (e *Entry) Matches(tag, in, out int) bool {
	return e.Tag == tag && e.InPorts.Get(in) && e.OutPorts.Get(out)
}

// Compress converts exact rules into TCAM entries using the bit-masking
// aggregation of §7/Figure 9, in two stages:
//
//  1. rules identical except for InPort merge into one entry with an
//     ingress-port bitmap (the paper's n·m(m-1)/2 result);
//  2. entries with identical (switch, tag, newtag, InPorts) then merge
//     their OutPorts ("joint aggregation on tag, InPort and OutPort").
//
// Both stages preserve exact semantics: stage 1 groups rules that share
// (switch, tag, out, newtag), so the cross product adds nothing; stage 2
// only merges entries whose InPort sets are identical, so the union of
// cross products is again exact.
func Compress(rules []core.Rule) []Entry {
	return CompressN(rules, 1)
}

// CompressN is Compress with an explicit worker count (0 = GOMAXPROCS,
// 1 = serial). Both stages only ever merge rules of the same switch and
// emit entries in ascending switch order, so when the input is grouped by
// switch (Ruleset.Rules() order) it can be cut at switch boundaries,
// compressed chunk-wise in parallel, and concatenated — identical output
// for every worker count. Ungrouped input falls back to one chunk.
func CompressN(rules []core.Rule, par int) []Entry {
	defer telemetry.Default.StartSpan("synth/tcam").End()
	w := sweep.Workers(par, len(rules))
	chunks := switchChunks(rules, w)
	if len(chunks) <= 1 {
		return compressChunk(rules)
	}
	outs := make([][]Entry, len(chunks))
	sweep.ForEachShard(len(chunks), len(chunks), func(s sweep.Shard) {
		for i := s.Lo; i < s.Hi; i++ {
			outs[i] = compressChunk(chunks[i])
		}
	})
	var res []Entry
	for _, o := range outs {
		res = append(res, o...)
	}
	return res
}

// switchChunks cuts rules into at most want contiguous chunks of
// near-equal size without splitting any switch across chunks. It returns
// a single chunk when the input is not grouped by switch.
func switchChunks(rules []core.Rule, want int) [][]core.Rule {
	if want <= 1 || len(rules) == 0 {
		return [][]core.Rule{rules}
	}
	for i := 1; i < len(rules); i++ {
		if rules[i].Switch < rules[i-1].Switch {
			return [][]core.Rule{rules}
		}
	}
	target := (len(rules) + want - 1) / want
	var chunks [][]core.Rule
	lo := 0
	for lo < len(rules) {
		hi := lo + target
		if hi >= len(rules) {
			hi = len(rules)
		} else {
			for hi < len(rules) && rules[hi].Switch == rules[hi-1].Switch {
				hi++
			}
		}
		chunks = append(chunks, rules[lo:hi])
		lo = hi
	}
	return chunks
}

func compressChunk(rules []core.Rule) []Entry {
	// Stage 1: group by (switch, tag, out, newtag), merge InPorts.
	type outKey struct {
		sw       topology.NodeID
		tag, out int
		newTag   int
	}
	stage1 := make(map[outKey]*Entry)
	var order []outKey // deterministic iteration
	for _, r := range rules {
		k := outKey{r.Switch, r.Tag, r.Out, r.NewTag}
		e, ok := stage1[k]
		if !ok {
			e = &Entry{Switch: r.Switch, Tag: r.Tag, NewTag: r.NewTag}
			e.OutPorts.Set(r.Out)
			stage1[k] = e
			order = append(order, k)
		}
		e.InPorts.Set(r.In)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.sw != b.sw {
			return a.sw < b.sw
		}
		if a.tag != b.tag {
			return a.tag < b.tag
		}
		if a.newTag != b.newTag {
			return a.newTag < b.newTag
		}
		return a.out < b.out
	})

	// Stage 2: merge entries with identical (switch, tag, newtag, InPorts).
	type inKey struct {
		sw     topology.NodeID
		tag    int
		newTag int
		inKey  string
	}
	stage2 := make(map[inKey]*Entry)
	var out []*Entry
	for _, k := range order {
		e := stage1[k]
		k2 := inKey{e.Switch, e.Tag, e.NewTag, e.InPorts.Key()}
		if merged, ok := stage2[k2]; ok {
			merged.OutPorts.Union(e.OutPorts)
			continue
		}
		stage2[k2] = e
		out = append(out, e)
	}

	res := make([]Entry, len(out))
	for i, e := range out {
		res[i] = *e
		// Canonical bitmaps: logically equal entries are struct-equal.
		res[i].InPorts.trim()
		res[i].OutPorts.trim()
	}
	return res
}

// CompressInPortOnly runs only stage 1 (the paper's n·m(m-1)/2 result),
// for the compression-level ablation: rules identical except InPort merge;
// OutPorts stay singletons.
func CompressInPortOnly(rules []core.Rule) []Entry {
	type outKey struct {
		sw       topology.NodeID
		tag, out int
		newTag   int
	}
	grouped := make(map[outKey]*Entry)
	var order []outKey
	for _, r := range rules {
		k := outKey{r.Switch, r.Tag, r.Out, r.NewTag}
		e, ok := grouped[k]
		if !ok {
			e = &Entry{Switch: r.Switch, Tag: r.Tag, NewTag: r.NewTag}
			e.OutPorts.Set(r.Out)
			grouped[k] = e
			order = append(order, k)
		}
		e.InPorts.Set(r.In)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.sw != b.sw {
			return a.sw < b.sw
		}
		if a.tag != b.tag {
			return a.tag < b.tag
		}
		if a.newTag != b.newTag {
			return a.newTag < b.newTag
		}
		return a.out < b.out
	})
	out := make([]Entry, 0, len(order))
	for _, k := range order {
		e := *grouped[k]
		e.InPorts.trim()
		e.OutPorts.trim()
		out = append(out, e)
	}
	return out
}

// CompressionLevels reports the entry counts at every compression level
// of §7: exact rules, InPort aggregation only, and joint aggregation.
type CompressionLevels struct {
	Exact      int
	InPortOnly int
	Joint      int
}

// Levels computes all three counts for a rule set.
func Levels(rules []core.Rule) CompressionLevels {
	return CompressionLevels{
		Exact:      len(rules),
		InPortOnly: len(CompressInPortOnly(rules)),
		Joint:      len(Compress(rules)),
	}
}

// Lookup scans entries in order and returns the first match — TCAM
// first-hit semantics. ok is false when no entry fires (the pipeline then
// falls through to the lossy safeguard).
func Lookup(entries []Entry, sw topology.NodeID, tag, in, out int) (newTag int, ok bool) {
	for i := range entries {
		if entries[i].Switch == sw && entries[i].Matches(tag, in, out) {
			return entries[i].NewTag, true
		}
	}
	return 0, false
}

// PerSwitchCount returns entry counts grouped by switch.
func PerSwitchCount(entries []Entry) map[topology.NodeID]int {
	m := make(map[topology.NodeID]int)
	for i := range entries {
		m[entries[i].Switch]++
	}
	return m
}

// MaxPerSwitch returns the largest per-switch entry count — the number
// that must fit in one ASIC's TCAM (Table 5's "Rules" column).
func MaxPerSwitch(entries []Entry) int {
	max := 0
	for _, c := range PerSwitchCount(entries) {
		if c > max {
			max = c
		}
	}
	return max
}

// UncompressedBound returns the paper's worst-case per-switch rule count
// without compression: n(n-1)·m(m-1)/2 for n ports and m tags.
func UncompressedBound(n, m int) int { return n * (n - 1) * m * (m - 1) / 2 }

// InPortAggregatedBound returns the paper's per-switch bound after InPort
// aggregation: n·m(m-1)/2.
func InPortAggregatedBound(n, m int) int { return n * m * (m - 1) / 2 }
