package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/routing"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// This file implements incremental re-synthesis: keeping a synthesized
// System up to date under ELP churn (link flaps, switch drains, pod adds)
// without re-running the full pipeline, while guaranteeing the result is
// rule-for-rule identical to from-scratch synthesis on the same path set.
//
// The correctness argument rests on every pipeline stage being a pure
// function of the brute-force graph's vertex/edge *set*, not of the order
// paths were inserted:
//
//   - Algorithm 1's graph is a union of per-path chains, so it can be
//     maintained as a reference-counted set of (port, tag) vertices and
//     edges: removing a path decrements its chain, adding one increments.
//   - GreedyMinimize sorts each tag group by (merge degree, port) — a
//     total order, since ports within a group are distinct — and the
//     sandbox admission test is reachability-based (set-pure), so its
//     output depends only on the brute-force set.
//   - DeriveRules keeps the minimum rewrite per match key and reports
//     conflicts canonically sorted, so rules and conflicts are set-pure.
//   - The runtime graph is a union of per-path replay chains. A path's
//     replay is determined by its NIC stamp plus the rule-table entries
//     at the match keys it consults hop by hop, so a path whose consulted
//     keys all carry the same value in the new ruleset replays to an
//     identical chain: the first divergent hop of any two replays of the
//     same path consults the same key in both rulesets (the trajectories
//     agree up to it), which would make that key a changed one. Resynth
//     therefore indexes paths by consulted key and replays only the paths
//     hit by the old-vs-new rule diff.
//
// Anything outside that argument — replay repairs, a path unexpectedly
// going lossy — falls back to full Synthesize, which is correct by
// construction (it *is* from-scratch synthesis). Rule conflicts stay on
// the incremental path: min-rewrite resolution is itself set-pure.

// Packed (port, tag) vertex keys for the reference-counted graphs. The
// packing doubles as the canonical materialization order: sorting keys
// sorts vertices by (port, tag).
const (
	rsTagBits = 13
	rsTagMask = 1<<rsTagBits - 1
	rsMaxPort = 1<<(32-rsTagBits) - 1
)

func packTagKey(p topology.PortID, tag int) uint32 {
	if p < 0 || int(p) > rsMaxPort || tag < 0 || tag > rsTagMask {
		panic(fmt.Sprintf("core: tag key out of range: port=%d tag=%d", p, tag))
	}
	return uint32(p)<<rsTagBits | uint32(tag)
}

func unpackTagKey(k uint32) TagNode {
	return TagNode{Port: topology.PortID(k >> rsTagBits), Tag: int(k & rsTagMask)}
}

// refGraph is a reference-counted (port, tag) multigraph: counts track how
// many live paths contribute each vertex/edge, and `changed` records
// whether the underlying *set* (count zero vs non-zero) changed since the
// last clearChanged.
type refGraph struct {
	nodes   *cmap32
	edges   *cmap64
	changed bool

	// materialize scratch, reused across calls.
	matKeys  []uint32
	matEkeys []uint64
	matIDs   []int32 // tg vertex id per nodes-table slot
}

func newRefGraph() refGraph {
	return refGraph{nodes: newCmap32(), edges: newCmap64()}
}

func (rg *refGraph) addChain(chain []uint32) {
	for i, k := range chain {
		if rg.nodes.incr(k) {
			rg.changed = true
		}
		if i > 0 {
			if rg.edges.incr(uint64(chain[i-1])<<32 | uint64(k)) {
				rg.changed = true
			}
		}
	}
}

func (rg *refGraph) removeChain(chain []uint32) {
	for i, k := range chain {
		if rg.nodes.decr(k) {
			rg.changed = true
		}
		if i > 0 {
			if rg.edges.decr(uint64(chain[i-1])<<32 | uint64(k)) {
				rg.changed = true
			}
		}
	}
}

// materialize builds a TaggedGraph over g from the refcounted set, visiting
// vertices and edges in sorted key order so the same set always produces
// the same graph regardless of the churn history that led to it.
func (rg *refGraph) materialize(g *topology.Graph) *TaggedGraph {
	tg := NewTaggedGraph(g)
	keys := rg.matKeys[:0]
	for j, k := range rg.nodes.keys {
		if k != 0 && rg.nodes.vals[j] > 0 {
			keys = append(keys, k)
		}
	}
	rg.matKeys = keys
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	// The nodes table's slot position doubles as a dense vertex-id index,
	// sparing a per-materialize map.
	if cap(rg.matIDs) < len(rg.nodes.keys) {
		rg.matIDs = make([]int32, len(rg.nodes.keys))
	}
	ids := rg.matIDs[:len(rg.nodes.keys)]
	for _, k := range keys {
		ids[rg.nodes.slot(k)] = tg.intern(unpackTagKey(k))
	}
	ekeys := rg.matEkeys[:0]
	for j, ek := range rg.edges.keys {
		if ek != 0 && rg.edges.vals[j] > 0 {
			ekeys = append(ekeys, ek)
		}
	}
	rg.matEkeys = ekeys
	sort.Slice(ekeys, func(i, j int) bool { return ekeys[i] < ekeys[j] })
	for _, ek := range ekeys {
		tg.addEdgeIDs(ids[rg.nodes.slot(uint32(ek>>32))], ids[rg.nodes.slot(uint32(ek))])
	}
	return tg
}

// rsPath is one tracked ELP slot's cached replay state; the path itself
// lives in the Resynth's path index and its liveness bit in the parallel
// lives slice, which hot scans (activePaths) walk without dragging these
// wider structs through the cache. A slot with lives[idx]=false is *parked*:
// the path left the ELP but its static metadata, key set, and index
// entries stay resident so a re-add (the recovery case) revives it
// without recomputing graph state or touching the key index (a rebuild
// drops a parked slot's chain and keys; see derive). ver invalidates the
// slot's keyIdx entries when its key set is replaced.
type rsPath struct {
	// pids is the path in port space: the ingress port per hop
	// (len(path)-1), a view into the hop ports NewResynthFull resolved,
	// or its own when Apply added it. Port numbering never
	// changes once a link exists (failures only mark links down), so it
	// is resolved once per path; every rewrite's match ports follow from
	// it (see rsReplayer.replay).
	pids  []topology.PortID
	chain []uint32 // runtime replay chain under the current rules
	keys  []uint64 // match keys the replay consulted (hits and misses)
	ver   uint32
}

// matchKey packs a rule match (switch, tag, in, out) into the key the
// Resynth indexes consulted matches by: 24 bits of switch, 8 of tag, 16
// each of port number. ok=false means no rule can be installed there (a
// tag above the table's range), so the match needs no index entry.
func matchKey(sw topology.NodeID, tag, in, out int) (uint64, bool) {
	if sw < 0 || sw >= 1<<24 || tag < 0 || tag > maxMatchTag ||
		in < 0 || in >= 1<<16 || out < 0 || out >= 1<<16 {
		return 0, false
	}
	return uint64(sw)<<40 | uint64(tag)<<32 | uint64(in)<<16 | uint64(out), true
}

// changedMatches calls fn with the key of every match whose rule differs
// between a and b over the same topology — a changed rewrite, or a rule
// only one of them holds — scanning the two rule tables row by row.
func changedMatches(a, b *Ruleset, fn func(k uint64)) {
	for sw := 0; sw < max(len(a.rows), len(b.rows)); sw++ {
		ra, rb := a.nodeRowsAt(sw), b.nodeRowsAt(sw)
		np := max(ra.np, rb.np)
		for tag := 0; tag < max(len(ra.tags), len(rb.tags)); tag++ {
			if ra.tagRow(tag) == nil && rb.tagRow(tag) == nil {
				continue
			}
			for in := 0; in < np; in++ {
				for out := 0; out < np; out++ {
					if ra.cell(tag, in, out) != rb.cell(tag, in, out) {
						k, _ := matchKey(topology.NodeID(sw), tag, in, out)
						fn(k)
					}
				}
			}
		}
	}
}

// bfChainOf writes the packed Algorithm 1 vertex chain (tag = hop index,
// starting at 1) into buf using the cached ingress ports.
func bfChainOf(pids []topology.PortID, buf []uint32) []uint32 {
	buf = buf[:0]
	for i, pid := range pids {
		buf = append(buf, packTagKey(pid, i+1))
	}
	return buf
}

// Resynth maintains a synthesized System incrementally across ELP churn.
// Apply diffs the path set, updates the refcounted brute-force graph,
// reruns only the stages whose inputs changed, and replays only the added
// paths plus those whose consulted rule keys the old-vs-new table diff
// touched. The returned System is guaranteed identical (rules, graphs,
// max tag, conflicts) to Synthesize(g, Paths(), opts) — the churn fuzzer
// in internal/check asserts exactly that.
//
// A path keeps its slot for good. Apply's removals only *park* a slot:
// its static metadata, last chain and key set, and its key-index entries
// stay resident, so a re-add (the recovery case) revives it without
// recomputing graph state or touching the key index. Memory is therefore
// one slot per distinct path ever applied — under the churn controller,
// the tracker's own universe, in the tracker's own slot order — and
// Paths() and System().ELP list the live paths in slot order (first
// application order) whatever the churn history, full rebuilds (the
// fallback) included: a rebuild keeps every slot and re-derives only
// what the new rules determine.
//
// Resynth is not safe for concurrent use; callers serialize Apply.
type Resynth struct {
	g    *topology.Graph
	opts Options
	// ix holds every resident path (parked slots included, so check lives
	// after Find); its slots index list and lives.
	ix     routing.PathIndex
	list   []rsPath
	lives  []bool // per-slot liveness, parallel to list
	parked int    // resident slots that are not live
	bf     refGraph
	run    refGraph
	sys    *System

	// keyIdx maps each consulted rule key to the slots that consulted it,
	// as packed idx<<32|ver entries. Parked slots keep their entries
	// (dormant, skipped on read); entries go stale only when a slot's key
	// set is replaced, and the whole index is rebuilt when stale entries
	// dominate.
	keyIdx   map[uint64][]uint64
	idxLive  int
	idxStale int

	// The slots the next replay walk visits, in ascending slot order:
	// marks holds markAdded or markAffected per slot (zero elsewhere) and
	// markLo..markHi bounds the marked range.
	marks          []uint8
	markLo, markHi int

	// Reusable scratch for replays and removed-chain staging.
	rp     replayer
	chain  []uint32 // rp's last replay, packed
	remBuf [][]uint32
	addBuf []int

	// fullSynth, when non-nil, replaces the direct Synthesize calls the
	// initial build and the rebuild() fallback make — the synthesis cache
	// (internal/synthcache) hooks in here so churn controllers reuse
	// cached systems instead of re-running Algorithms 1+2.
	fullSynth func(g *topology.Graph, paths []routing.Path, opts Options) (*System, error)

	broken bool
}

// Replay-walk marks: an added slot's chain joins the runtime graph; an
// affected one's replaces its stored chain if the replay changed it.
const (
	markAffected = 1 + iota
	markAdded
)

// NewResynth synthesizes the initial system from scratch and returns the
// incremental state tracking it. Duplicate paths (same node sequence)
// are dropped, matching elp.Set semantics.
func NewResynth(g *topology.Graph, paths []routing.Path, opts Options) (*Resynth, error) {
	return NewResynthFull(g, paths, opts, nil)
}

// NewResynthFull is NewResynth with an explicit full-synthesis function:
// fn replaces every from-scratch Synthesize call (the initial build here
// and the rebuild() fallback), and must be observably equivalent to
// Synthesize — the synthesis cache qualifies because cached systems are
// rule-identical to fresh ones. A nil fn means plain Synthesize.
//
// The systems fn returns may be shared with other consumers: Resynth
// never mutates a system it was handed — incremental application always
// constructs fresh System values.
func NewResynthFull(g *topology.Graph, paths []routing.Path, opts Options,
	fn func(*topology.Graph, []routing.Path, Options) (*System, error)) (*Resynth, error) {
	r := &Resynth{g: g, opts: opts, fullSynth: fn}
	r.ix.Reserve(len(paths))
	for _, p := range paths {
		r.ix.Add(p)
	}
	hp := newHopPorts(g, r.ix.Paths(), opts.Workers)
	r.list = make([]rsPath, r.ix.Len())
	r.lives = make([]bool, r.ix.Len())
	for i := range r.list {
		r.list[i].pids = hp.at(i)
		r.lives[i] = true
	}
	sys, err := r.synthesize(r.activePaths())
	if err != nil {
		return nil, err
	}
	if err := r.derive(sys); err != nil {
		return nil, err
	}
	return r, nil
}

// synthesize runs the full-synthesis function (the hook if installed,
// plain Synthesize otherwise).
func (r *Resynth) synthesize(paths []routing.Path) (*System, error) {
	if r.fullSynth != nil {
		return r.fullSynth(r.g, paths, r.opts)
	}
	return Synthesize(r.g, paths, r.opts)
}

// derive rebuilds the state a full synthesis of the live slots leaves
// stale — the refcounted graphs, each live slot's chain and key set, the
// key index — from sys, keeping every slot where it is. A parked slot
// keeps its path and hop ports but drops its chain and keys: the rules
// they were replayed under are gone, and its revival replays and
// re-indexes it.
func (r *Resynth) derive(sys *System) error {
	r.sys = sys
	r.bf, r.run = newRefGraph(), newRefGraph()
	r.keyIdx = make(map[uint64][]uint64)
	r.idxLive, r.idxStale = 0, 0
	clear(r.marks) // a lossy replay leaves marks behind
	r.rp.reset(sys.Rules, 1)
	paths := r.ix.Paths()
	var buf []uint32
	for idx := range r.list {
		e := &r.list[idx]
		if !r.lives[idx] {
			e.chain, e.keys = e.chain[:0], e.keys[:0]
			continue
		}
		buf = bfChainOf(e.pids, buf)
		r.bf.addChain(buf)
		chain, keys, ok := r.replay(paths[idx], e.pids)
		if !ok {
			return fmt.Errorf("core: resynth: path %s lossy under synthesized rules", paths[idx].String(r.g))
		}
		e.chain, e.keys = append(e.chain[:0], chain...), append(e.keys[:0], keys...)
		r.run.addChain(chain)
		r.indexKeys(idx)
	}
	return nil
}

// track appends a live slot for p, which must not be resident, and
// returns it.
func (r *Resynth) track(p routing.Path, e rsPath) int {
	idx, added := r.ix.Add(p)
	if !added || idx != len(r.list) {
		panic("core: resynth path index out of step with its slot list")
	}
	r.list = append(r.list, e)
	r.lives = append(r.lives, true)
	return idx
}

// indexKeys registers r.list[idx]'s consulted keys in the key index.
func (r *Resynth) indexKeys(idx int) {
	e := &r.list[idx]
	en := uint64(idx)<<32 | uint64(e.ver)
	for _, k := range e.keys {
		r.keyIdx[k] = append(r.keyIdx[k], en)
	}
	r.idxLive += len(e.keys)
}

// unindexKeys marks r.list[idx]'s current index entries stale (they are
// filtered lazily on read or swept by rebuildIndex).
func (r *Resynth) unindexKeys(idx int) {
	e := &r.list[idx]
	e.ver++
	r.idxLive -= len(e.keys)
	r.idxStale += len(e.keys)
}

// rebuildIndex re-derives the key index from every resident slot — live
// and parked alike, since parked slots' entries must survive for revival —
// dropping all stale entries.
func (r *Resynth) rebuildIndex() {
	r.keyIdx = make(map[uint64][]uint64)
	r.idxLive, r.idxStale = 0, 0
	for idx := range r.list {
		r.indexKeys(idx)
	}
}

// commit stores a freshly replayed chain and key set on slot idx, reusing
// the slot's backing arrays (the inputs live in replay scratch) and
// keeping the key index consistent: when the consulted keys are unchanged
// — every flap-recovery revival — the existing entries stay valid and the
// index is untouched.
func (r *Resynth) commit(idx int, chain []uint32, keys []uint64) {
	e := &r.list[idx]
	if !slices.Equal(keys, e.keys) {
		r.unindexKeys(idx)
		e.keys = append(e.keys[:0], keys...)
		r.indexKeys(idx)
	}
	e.chain = append(e.chain[:0], chain...)
}

// System returns the current synthesized system.
func (r *Resynth) System() *System { return r.sys }

// Paths returns the current ELP set in slot order.
func (r *Resynth) Paths() []routing.Path { return r.activePaths() }

func (r *Resynth) activePaths() []routing.Path {
	out := make([]routing.Path, 0, len(r.list)-r.parked)
	paths := r.ix.Paths()
	for i, alive := range r.lives {
		if alive {
			out = append(out, paths[i])
		}
	}
	return out
}

// rebuild is the full-synthesis fallback: anything the incremental
// argument does not cover (prior repairs, a lossy replay) re-runs
// Synthesize on the live paths in slot order and re-derives the state
// from it. Correct by construction, O(fabric). Slots stay put, so a path
// set that recurs is handed to the full-synthesis hook in the same order
// and the synthesis cache serves it.
func (r *Resynth) rebuild() (*System, error) {
	telemetry.Default.Counter("resynth_full_rebuilds_total").Inc()
	sys, err := r.synthesize(r.activePaths())
	if err == nil {
		err = r.derive(sys)
	}
	if err != nil {
		r.broken = true
		return nil, err
	}
	return sys, nil
}

// Apply removes then adds the given paths and returns the re-synthesized
// system. Removals park their slots (see Resynth). Removals of untracked
// or parked paths and re-adds of live paths are ignored, so callers can
// pass raw churn deltas. An error marks the state unusable (it indicates
// a bug in synthesis, not bad input).
func (r *Resynth) Apply(added, removed []routing.Path) (*System, error) {
	defer telemetry.Default.StartSpan("synth/resynth").End()
	if r.broken {
		return nil, fmt.Errorf("core: resynth state is broken by a previous error")
	}
	telemetry.Default.Counter("resynth_apply_total").Inc()

	// Prior replay repairs mean the current rules are not the pure
	// set-function of the brute-force graph the incremental argument
	// needs (the repair pass scans paths in order); stay on the full path
	// until synthesis is repair-free. Conflicts alone are fine: their
	// resolution keeps the minimum rewrite per match key and reports them
	// canonically sorted, both pure functions of the merged graph.
	dirty := len(r.sys.Repairs) > 0

	r.bf.changed = false
	var buf []uint32

	// Removals first, so a remove+add of the same path nets to a replace.
	remChains := r.remBuf[:0]
	for _, p := range removed {
		idx, ok := r.ix.Find(p)
		if !ok || !r.lives[idx] {
			continue
		}
		e := &r.list[idx]
		buf = bfChainOf(e.pids, buf)
		r.bf.removeChain(buf)
		remChains = append(remChains, e.chain)
		r.lives[idx] = false
		r.parked++
	}
	r.remBuf = remChains
	addedIdx := r.addBuf[:0]
	for _, p := range added {
		if idx, ok := r.ix.Find(p); ok {
			if !r.lives[idx] {
				// Revival: the parked metadata was validated when the
				// path first entered, and ports never renumber.
				r.lives[idx] = true
				r.parked--
				buf = bfChainOf(r.list[idx].pids, buf)
				r.bf.addChain(buf)
				addedIdx = append(addedIdx, idx)
			}
			continue
		}
		if !p.LoopFree() || !p.Valid(r.g) {
			r.broken = true
			return nil, fmt.Errorf("core: resynth: invalid path %s", p.String(r.g))
		}
		e := rsPath{pids: appendHopPorts(r.g, p, nil)}
		buf = bfChainOf(e.pids, buf)
		r.bf.addChain(buf)
		addedIdx = append(addedIdx, r.track(p, e))
	}
	r.addBuf = addedIdx
	telemetry.Default.Counter("resynth_paths_removed_total").Add(int64(len(remChains)))
	telemetry.Default.Counter("resynth_paths_added_total").Add(int64(len(addedIdx)))

	if len(remChains) == 0 && len(addedIdx) == 0 {
		return r.sys, nil
	}
	if dirty {
		return r.rebuild()
	}

	r.run.changed = false
	for _, c := range remChains {
		r.run.removeChain(c)
	}
	r.clearMarks()
	for _, idx := range addedIdx {
		r.mark(idx, markAdded)
	}
	if !r.bf.changed {
		return r.applySameRules()
	}
	return r.applyNewRules()
}

// clearMarks sizes the mark array to the slot list with nothing marked.
func (r *Resynth) clearMarks() {
	if cap(r.marks) < len(r.list) {
		r.marks = make([]uint8, len(r.list))
	}
	r.marks = r.marks[:len(r.list)]
	r.markLo, r.markHi = len(r.list), -1
}

// mark schedules slot idx for the replay walk; markAdded wins.
func (r *Resynth) mark(idx int, m uint8) {
	if r.marks[idx] >= m {
		return
	}
	r.marks[idx] = m
	r.markLo, r.markHi = min(r.markLo, idx), max(r.markHi, idx)
}

// replay runs path p, whose hop ports are pids, through r.rp and returns
// its packed runtime chain and the keys it consulted, valid until the
// next call. ok=false means the path went lossy; the chain then stops
// before the hop that did. Only the hops the replay did not resume are
// packed.
func (r *Resynth) replay(p routing.Path, pids []topology.PortID) (chain []uint32, keys []uint64, ok bool) {
	from, ok := r.rp.replay(p, pids)
	chain = r.chain[:from]
	for _, h := range r.rp.hops[from:] {
		chain = append(chain, packTagKey(h.port, h.tag))
	}
	r.chain = chain
	return chain, r.rp.keys, ok
}

// replayMarked replays the marked slots under rules in ascending slot
// order, resuming each from the previous one's shared prefix, and folds
// the chains into the runtime graph: an added slot's chain joins it, an
// affected slot's replaces the stored one if it changed. It clears the
// marks as it goes and returns false on a lossy replay — from-scratch
// synthesis would have repaired, so the caller defers to it (rebuild).
func (r *Resynth) replayMarked(rules *Ruleset) bool {
	paths := r.ix.Paths()
	r.rp.reset(rules, 1)
	replays := 0
	for idx := r.markLo; idx <= r.markHi; idx++ {
		m := r.marks[idx]
		if m == 0 {
			continue
		}
		r.marks[idx] = 0
		e := &r.list[idx]
		chain, keys, ok := r.replay(paths[idx], e.pids)
		if !ok {
			return false // the rebuild that follows drops the marks
		}
		replays++
		if m == markAffected {
			if slices.Equal(chain, e.chain) {
				continue // the touched rules resolved to the same trajectory
			}
			r.run.removeChain(e.chain)
		}
		r.run.addChain(chain)
		r.commit(idx, chain, keys)
	}
	telemetry.Default.Counter("resynth_replays_total").Add(int64(replays))
	return true
}

// applySameRules is the fast path: the brute-force vertex/edge set did not
// change (every removed chain is still covered by surviving paths, every
// added chain was already present), so tags, rules, and conflicts are all
// unchanged — only the runtime graph's refcounts move.
func (r *Resynth) applySameRules() (*System, error) {
	prev := r.sys
	if !r.replayMarked(prev.Rules) {
		return r.rebuild()
	}
	telemetry.Default.Counter("resynth_rules_reused_total").Inc()
	return r.finish(&System{
		BruteForce: prev.BruteForce,
		Merged:     prev.Merged,
		Rules:      prev.Rules,
		Conflicts:  prev.Conflicts,
	})
}

// applyNewRules re-runs Algorithm 2 and rule derivation on the updated
// brute-force set, then replays only the added paths plus the paths the
// key index reports as touched by the old-vs-new rule diff — everything
// else provably replays to its stored chain.
func (r *Resynth) applyNewRules() (*System, error) {
	prev := r.sys
	bfTG := r.bf.materialize(r.g)
	tagged := bfTG
	var merged *TaggedGraph
	if !r.opts.SkipMerge {
		merged = GreedyMinimize(bfTG)
		if err := merged.Verify(); err != nil {
			r.broken = true
			return nil, fmt.Errorf("core: resynth merged graph: %w", err)
		}
		tagged = merged
	}
	// Conflicts are carried, not punted on: min-rewrite resolution is
	// set-pure. Only a lossy replay below (Synthesize's repair trigger)
	// demands the full pipeline.
	rules, conflicts := deriveRulesN(tagged, r.opts.Workers)

	// Mark the live paths whose replay consulted a match whose rule
	// changed (value change, removal, or addition at a previously-missed
	// key). Reads through the index drop stale entries as they go;
	// dormant entries (parked slots) are kept but not marked.
	collect := func(k uint64) {
		entries, ok := r.keyIdx[k]
		if !ok {
			return
		}
		kept := entries[:0]
		for _, en := range entries {
			idx, ver := int(en>>32), uint32(en)
			if r.list[idx].ver != ver {
				r.idxStale--
				continue
			}
			kept = append(kept, en)
			if r.lives[idx] {
				r.mark(idx, markAffected)
			}
		}
		if len(kept) == 0 {
			delete(r.keyIdx, k)
		} else {
			r.keyIdx[k] = kept
		}
	}
	changedMatches(prev.Rules, rules, collect)
	if !r.replayMarked(rules) {
		return r.rebuild()
	}

	return r.finish(&System{
		BruteForce: bfTG,
		Merged:     merged,
		Rules:      rules,
		Conflicts:  conflicts,
	})
}

// finish completes sys, which carries the stages Apply reran or reused,
// into the next system: the runtime graph is rematerialized and verified
// only if the replays changed it, and the live paths become its ELP.
func (r *Resynth) finish(sys *System) (*System, error) {
	sys.Graph, sys.Runtime = r.g, r.sys.Runtime
	if r.run.changed {
		sys.Runtime = r.run.materialize(r.g)
		if err := sys.Runtime.Verify(); err != nil {
			r.broken = true
			return nil, fmt.Errorf("core: resynth runtime graph: %w", err)
		}
	}
	sys.ELP = r.activePaths()
	r.sys = sys
	// Sweep the key index once stale entries dominate it: O(resident
	// state), amortized against the churn that made the garbage.
	if r.idxStale > r.idxLive && r.idxStale > 4096 {
		r.rebuildIndex()
	}
	return sys, nil
}
