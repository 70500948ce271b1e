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
// entries stay resident so a re-add (the flap-recovery case) revives it
// without recomputing graph state or touching the key index. ver
// invalidates the slot's keyIdx entries when its key set is replaced or
// its path forgotten.
type rsPath struct {
	// pids is the path in port space: the ingress port per hop
	// (len(path)-1), a view into the hop ports of the system the slot
	// entered with, or its own when Apply added it. Port numbering never
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

// rsReplayer replays slots one after another through one ruleset, from
// the NIC stamp (tag 1) with the cached hop metadata, recording the packed
// runtime chain and the rule keys consulted (whether they hit or missed —
// a key that later gains an entry changes the outcome too).
//
// Like the synthesis replayer (parallel.go) it resumes each replay where
// the path parts from the previous one: chain entry i and the keys
// consulted before it depend on the path's first i+2 nodes only, so for
// the nodes two consecutive paths share, the previous replay already
// computed them under the same rules. Only the rewrite at the last shared
// node is redone — it matches on the egress port toward the first node
// that differs. Resuming is capped where the previous path went lossy:
// nothing past that hop was replayed. Walking slots in ascending order
// makes consecutive paths share most of their hops on enumerated ELPs.
type rsReplayer struct {
	rs    *Ruleset
	prev  routing.Path
	chain []uint32 // the previous replay's chain, reused as this one's
	keys  []uint64
	tags  []int   // tag carried on chain[i]
	nkeys []int32 // len(keys) when chain[i] was appended
}

// reset starts a walk under rs; nothing of an earlier walk is resumed.
func (rp *rsReplayer) reset(rs *Ruleset) {
	rp.rs, rp.prev = rs, nil
	rp.chain, rp.keys = rp.chain[:0], rp.keys[:0]
}

// replay runs p, whose cached metadata is e, and returns its chain and
// consulted keys, valid until the next call. ok=false means the path went
// lossy; the chain then ends at the hop that did. The rewrite at p[i]
// matches on the port p[i] was entered by, e.pids[i-1], and the port it
// leaves on, the far end of the link p[i+1] is entered by, e.pids[i].
func (rp *rsReplayer) replay(p routing.Path, e *rsPath) (chain []uint32, keys []uint64, ok bool) {
	shared := 0
	for shared < len(p) && shared < len(rp.prev) && p[shared] == rp.prev[shared] {
		shared++
	}
	rp.prev = p
	n := len(e.pids)
	if grow := n - len(rp.tags); grow > 0 {
		rp.tags = append(rp.tags, make([]int, grow)...)
		rp.nkeys = append(rp.nkeys, make([]int32, grow)...)
	}
	tags, nkeys := rp.tags, rp.nkeys
	from, tag := min(shared-1, len(rp.chain)), 1
	if from > 0 {
		chain, keys, tag = rp.chain[:from], rp.keys[:nkeys[from-1]], tags[from-1]
	} else {
		from, chain, keys = 0, rp.chain[:0], rp.keys[:0]
	}
	ok = true
	rs := rp.rs
	g := rs.g
	for i := from; i < n; i++ {
		if i > 0 {
			at := g.Port(e.pids[i-1])
			in, out := at.Num, egressNum(g, e.pids[i])
			if k, kok := matchKey(at.Node, tag, in, out); kok {
				keys = append(keys, k)
			}
			tag = rs.Classify(at.Node, tag, in, out)
			if tag == LossyTag {
				ok = false
				break
			}
		}
		tags[i], nkeys[i] = tag, int32(len(keys))
		chain = append(chain, packTagKey(e.pids[i], tag))
	}
	rp.chain, rp.keys = chain, keys
	return chain, keys, ok
}

// Resynth maintains a synthesized System incrementally across ELP churn.
// Apply diffs the path set, updates the refcounted brute-force graph,
// reruns only the stages whose inputs changed, and replays only the added
// paths plus those whose consulted rule keys the old-vs-new table diff
// touched. The returned System is guaranteed identical (rules, graphs,
// max tag, conflicts) to Synthesize(g, Paths(), opts) — the churn fuzzer
// in internal/check asserts exactly that.
//
// A path keeps its slot until it is forgotten. Apply's removals only
// *park* a slot: its static metadata, last chain and key set, and its
// key-index entries stay resident, so a re-add (the flap-recovery case)
// revives it without recomputing graph state or touching the key index.
// Only ApplySet forgets, the tracked paths its new set leaves out, and
// only forgotten slots are ever compacted away. Memory is therefore one
// slot per distinct path applied and not yet forgotten — under the churn
// controller, which never calls ApplySet, the tracker's own universe —
// and Paths() and System().ELP list the live paths in slot order (first
// application order) whatever the churn history. A full rebuild (the
// fallback) re-slots from the rebuilt system and drops parked slots.
//
// Resynth is not safe for concurrent use; callers serialize Apply.
type Resynth struct {
	g    *topology.Graph
	opts Options
	// ix holds every resident path (parked slots included, so check lives
	// after Find); its slots index list and lives. A forgotten slot holds
	// a nil path and a zero rsPath until compaction.
	ix        routing.PathIndex
	list      []rsPath
	lives     []bool // per-slot liveness, parallel to list
	parked    int    // resident slots that are not live
	forgotten int    // slots whose path was forgotten
	bf        refGraph
	run       refGraph
	sys       *System

	// keyIdx maps each consulted rule key to the slots that consulted it,
	// as packed idx<<32|ver entries. Parked slots keep their entries
	// (dormant, skipped on read); entries go stale only when a slot's key
	// set is replaced or its path forgotten, and the whole index is
	// rebuilt when stale entries dominate.
	keyIdx   map[uint64][]uint64
	idxLive  int
	idxStale int

	// The slots the next replay walk visits, in ascending slot order:
	// marks holds markAdded or markAffected per slot (zero elsewhere) and
	// markLo..markHi bounds the marked range.
	marks          []uint8
	markLo, markHi int

	// Reusable scratch for replays and removed-chain staging.
	rp     rsReplayer
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
	if opts.StartTag == 0 {
		opts.StartTag = 1
	}
	if opts.StartTag != 1 {
		return nil, fmt.Errorf("core: resynth requires StartTag 1, got %d", opts.StartTag)
	}
	var deduped routing.PathIndex
	deduped.Reserve(len(paths))
	for _, p := range paths {
		deduped.Add(p)
	}
	r := &Resynth{g: g, opts: opts, fullSynth: fn}
	sys, err := r.synthesize(deduped.Paths())
	if err != nil {
		return nil, err
	}
	if err := r.initFrom(sys); err != nil {
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

// initFrom rebuilds the entire incremental state (path index, refcounted
// graphs, cached chains, key index) from a freshly synthesized system.
func (r *Resynth) initFrom(sys *System) error {
	r.sys = sys
	r.ix = routing.PathIndex{}
	r.ix.Reserve(len(sys.ELP))
	r.list = make([]rsPath, 0, len(sys.ELP))
	r.lives = make([]bool, 0, len(sys.ELP))
	r.parked, r.forgotten = 0, 0
	r.bf = newRefGraph()
	r.run = newRefGraph()
	r.keyIdx = make(map[uint64][]uint64)
	r.idxLive, r.idxStale = 0, 0
	r.marks = nil // may hold marks for the list being discarded
	r.rp.reset(sys.Rules)
	hp := newHopPorts(r.g, sys.ELP, r.opts.Workers)
	var buf []uint32
	for i, p := range sys.ELP {
		e := rsPath{pids: hp.at(i)}
		buf = bfChainOf(e.pids, buf)
		r.bf.addChain(buf)
		chain, keys, ok := r.rp.replay(p, &e)
		if !ok {
			return fmt.Errorf("core: resynth init: path %s lossy under synthesized rules", p.String(r.g))
		}
		e.chain, e.keys = slices.Clone(chain), slices.Clone(keys)
		r.run.addChain(chain)
		r.indexKeys(r.track(p, e))
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
	if !keysEqual(keys, e.keys) {
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
	out := make([]routing.Path, 0, len(r.list)-r.parked-r.forgotten)
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
// Synthesize on the current path set and rebuilds the state. Correct by
// construction, O(fabric).
func (r *Resynth) rebuild() (*System, error) {
	telemetry.Default.Counter("resynth_full_rebuilds_total").Inc()
	sys, err := r.synthesize(r.activePaths())
	if err != nil {
		r.broken = true
		return nil, err
	}
	if err := r.initFrom(sys); err != nil {
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

// replayMarked replays the marked slots under rules in ascending slot
// order, resuming each from the previous one's shared prefix, and folds
// the chains into the runtime graph: an added slot's chain joins it, an
// affected slot's replaces the stored one if it changed. It clears the
// marks as it goes and returns false on a lossy replay — from-scratch
// synthesis would have repaired, so the caller defers to it (rebuild).
func (r *Resynth) replayMarked(rules *Ruleset) bool {
	paths := r.ix.Paths()
	r.rp.reset(rules)
	replays := 0
	for idx := r.markLo; idx <= r.markHi; idx++ {
		m := r.marks[idx]
		if m == 0 {
			continue
		}
		r.marks[idx] = 0
		e := &r.list[idx]
		chain, keys, ok := r.rp.replay(paths[idx], e)
		if !ok {
			return false // the rebuild that follows drops the marks
		}
		replays++
		if m == markAffected {
			if chainsEqual(chain, e.chain) {
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
	runtime := prev.Runtime
	if r.run.changed {
		runtime = r.run.materialize(r.g)
		if err := runtime.Verify(); err != nil {
			r.broken = true
			return nil, fmt.Errorf("core: resynth runtime graph: %w", err)
		}
	}
	telemetry.Default.Counter("resynth_rules_reused_total").Inc()
	r.sys = &System{
		Graph:      r.g,
		ELP:        r.activePaths(),
		BruteForce: prev.BruteForce,
		Merged:     prev.Merged,
		Rules:      prev.Rules,
		Runtime:    runtime,
		Conflicts:  prev.Conflicts,
	}
	r.compact()
	return r.sys, nil
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

	runtime := prev.Runtime
	if r.run.changed {
		runtime = r.run.materialize(r.g)
		if err := runtime.Verify(); err != nil {
			r.broken = true
			return nil, fmt.Errorf("core: resynth runtime graph: %w", err)
		}
	}
	r.sys = &System{
		Graph:      r.g,
		ELP:        r.activePaths(),
		BruteForce: bfTG,
		Merged:     merged,
		Rules:      rules,
		Runtime:    runtime,
		Conflicts:  conflicts,
	}
	r.compact()
	return r.sys, nil
}

func chainsEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func keysEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ApplySet makes the given path set the ELP — the entry point for policy
// re-evaluation (e.g. after a pod expansion re-enumerates ELP paths). It
// applies the delta against the live set and then forgets every resident
// path, live or parked, that the new set leaves out.
func (r *Resynth) ApplySet(paths []routing.Path) (*System, error) {
	var want routing.PathIndex
	want.Reserve(len(paths))
	var added []routing.Path
	for _, p := range paths {
		if _, fresh := want.Add(p); !fresh {
			continue
		}
		if idx, ok := r.ix.Find(p); !ok || !r.lives[idx] {
			added = append(added, p)
		}
	}
	var removed, dropped []routing.Path
	for i, p := range r.ix.Paths() {
		if p == nil {
			continue
		}
		if _, ok := want.Find(p); !ok {
			dropped = append(dropped, p)
			if r.lives[i] {
				removed = append(removed, p)
			}
		}
	}
	sys, err := r.Apply(added, removed)
	if err != nil {
		return nil, err
	}
	for _, p := range dropped {
		r.forget(p)
	}
	r.compact()
	return sys, nil
}

// forget drops parked path p's slot for good: its index entries go stale
// and the slot holds nothing until compaction. A live or unknown path (a
// rebuild re-slots) is left alone.
func (r *Resynth) forget(p routing.Path) {
	idx, ok := r.ix.Find(p)
	if !ok || r.lives[idx] {
		return
	}
	r.unindexKeys(idx)
	r.list[idx] = rsPath{ver: r.list[idx].ver}
	r.ix.Remove(p)
	r.parked--
	r.forgotten++
}

// compact re-slots the resident paths once forgotten slots dominate the
// path list, and sweeps the key index once stale entries dominate it.
// Both rebuilds are O(resident state) and amortize against the churn
// that made the garbage.
func (r *Resynth) compact() {
	if r.forgotten > len(r.list)/2 {
		n := len(r.list) - r.forgotten
		old, oldList, oldLives := r.ix.Paths(), r.list, r.lives
		r.ix = routing.PathIndex{}
		r.ix.Reserve(n)
		r.list, r.lives, r.forgotten = make([]rsPath, 0, n), make([]bool, 0, n), 0
		for i, p := range old {
			if p != nil {
				r.lives[r.track(p, oldList[i])] = oldLives[i]
			}
		}
		r.marks = nil
		r.rebuildIndex() // entry idx fields shifted
		return
	}
	if r.idxStale > r.idxLive && r.idxStale > 4096 {
		r.rebuildIndex()
	}
}
