package core

import (
	"fmt"
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

// rsHop is the static classification context of one interior hop: the
// switch that rewrites the tag and the port numbers the match key uses.
// Port numbering never changes once a link exists (failures only mark
// links down), so this is computed once per path.
type rsHop struct {
	sw      topology.NodeID
	in, out int32
}

// rsPath is one tracked ELP slot's cached replay state; the path itself
// lives in the Resynth's path index and its liveness bit in the parallel
// lives slice, which hot scans (activePaths) walk without dragging these
// wider structs through the cache. A slot with lives[idx]=false is *parked*:
// the path left the ELP but its static metadata, key set, and index
// entries stay resident so a re-add (the flap-recovery case) revives it
// without recomputing graph state or touching the key index. ver
// invalidates the slot's keyIdx entries when its key set is replaced.
type rsPath struct {
	pids  []topology.PortID // ingress port per hop (len(path)-1)
	hops  []rsHop           // classification context per interior hop (len(path)-2)
	chain []uint32          // runtime replay chain under the current rules
	keys  []uint64          // rule keys the replay consulted (hits and misses)
	ver   uint32
}

// pathState resolves the static per-path replay metadata from the graph.
func pathState(g *topology.Graph, p routing.Path) rsPath {
	e := rsPath{pids: make([]topology.PortID, 0, len(p)-1)}
	if len(p) > 2 {
		e.hops = make([]rsHop, 0, len(p)-2)
	}
	for i := 1; i < len(p); i++ {
		e.pids = append(e.pids, ingressPortID(g, p[i-1], p[i]))
		if i+1 < len(p) {
			sw := p[i]
			e.hops = append(e.hops, rsHop{
				sw:  sw,
				in:  int32(g.PortToPeer(sw, p[i-1])),
				out: int32(g.PortToPeer(sw, p[i+1])),
			})
		}
	}
	return e
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

// replayInto runs e's path through rs from the NIC stamp (tag 1) using the
// cached hop metadata, appending the packed runtime chain and the rule
// keys consulted (whether they hit or missed — a key that later gains an
// entry changes the outcome too) to the caller's buffers. ok=false means
// the path went lossy.
func (e *rsPath) replayInto(rs *Ruleset, chain []uint32, keys []uint64) ([]uint32, []uint64, bool) {
	tag := 1
	for i, pid := range e.pids {
		chain = append(chain, packTagKey(pid, tag))
		if i < len(e.hops) {
			h := e.hops[i]
			if k, kok := packRuleKeyOK(h.sw, tag, int(h.in), int(h.out)); kok {
				keys = append(keys, uint64(k))
				if nt, hit := rs.rules[k]; hit {
					tag = nt
				} else {
					tag = rs.Classify(h.sw, tag, int(h.in), int(h.out))
				}
			} else {
				tag = rs.Classify(h.sw, tag, int(h.in), int(h.out))
			}
			if tag == LossyTag {
				return chain, keys, false
			}
		}
	}
	return chain, keys, true
}

// Resynth maintains a synthesized System incrementally across ELP churn.
// Apply diffs the path set, updates the refcounted brute-force graph,
// reruns only the stages whose inputs changed, and replays only the added
// paths plus those whose consulted rule keys the old-vs-new table diff
// touched. The returned System is guaranteed identical (rules, graphs,
// max tag, conflicts) to Synthesize(g, Paths(), opts) — the churn fuzzer
// in internal/check asserts exactly that.
//
// Resynth is not safe for concurrent use; callers serialize Apply.
type Resynth struct {
	g    *topology.Graph
	opts Options
	// ix holds every resident path (parked slots included, so check lives
	// after Find); its slots index list and lives.
	ix    routing.PathIndex
	list  []rsPath
	lives []bool // per-slot liveness, parallel to list
	dead  int    // parked slot count
	bf    refGraph
	run   refGraph
	sys   *System

	// keyIdx maps each consulted rule key to the slots that consulted it,
	// as packed idx<<32|ver entries. Parked slots keep their entries
	// (dormant, skipped on read); entries go stale only when a slot's key
	// set is replaced, and the whole index is rebuilt when stale entries
	// dominate.
	keyIdx   map[uint64][]uint64
	idxLive  int
	idxStale int

	// Reusable scratch for replays, chain staging, and affected-path
	// collection.
	chainBuf  []uint32
	keyBuf    []uint64
	seen      []bool
	remBuf    [][]uint32
	addBuf    []int
	affectBuf []int

	// fullSynth, when non-nil, replaces the direct Synthesize calls the
	// initial build and the rebuild() fallback make — the synthesis cache
	// (internal/synthcache) hooks in here so churn controllers reuse
	// cached systems instead of re-running Algorithms 1+2.
	fullSynth func(g *topology.Graph, paths []routing.Path, opts Options) (*System, error)

	broken bool
}

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
	r.dead = 0
	r.bf = newRefGraph()
	r.run = newRefGraph()
	r.keyIdx = make(map[uint64][]uint64)
	r.idxLive, r.idxStale = 0, 0
	r.seen = nil // may hold flags for the list being discarded
	var buf []uint32
	for _, p := range sys.ELP {
		e := pathState(r.g, p)
		buf = bfChainOf(e.pids, buf)
		r.bf.addChain(buf)
		chain, keys, ok := e.replayInto(sys.Rules, nil, nil)
		if !ok {
			return fmt.Errorf("core: resynth init: path %s lossy under synthesized rules", p.String(r.g))
		}
		e.chain, e.keys = chain, keys
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
// the slot's backing arrays (the inputs may live in scratch buffers) and
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

// Paths returns the current ELP set in insertion order.
func (r *Resynth) Paths() []routing.Path { return r.activePaths() }

func (r *Resynth) activePaths() []routing.Path {
	out := make([]routing.Path, 0, len(r.list)-r.dead)
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
// system. Removals of untracked paths and re-adds of tracked paths are
// ignored, so callers can pass raw churn deltas. An error marks the state
// unusable (it indicates a bug in synthesis, not bad input).
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
	// A removal only parks the slot: its metadata and dormant index
	// entries wait for revival.
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
		r.dead++
	}
	r.remBuf = remChains
	addedIdx := r.addBuf[:0]
	for _, p := range added {
		if idx, ok := r.ix.Find(p); ok {
			if !r.lives[idx] {
				// Revival: the parked metadata was validated when the
				// path first entered, and ports never renumber.
				r.lives[idx] = true
				r.dead--
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
		e := pathState(r.g, p)
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

	if !r.bf.changed {
		return r.applySameRules(remChains, addedIdx)
	}
	return r.applyNewRules(remChains, addedIdx)
}

// applySameRules is the fast path: the brute-force vertex/edge set did not
// change (every removed chain is still covered by surviving paths, every
// added chain was already present), so tags, rules, and conflicts are all
// unchanged — only the runtime graph's refcounts move.
func (r *Resynth) applySameRules(remChains [][]uint32, addedIdx []int) (*System, error) {
	prev := r.sys
	r.run.changed = false
	for _, c := range remChains {
		r.run.removeChain(c)
	}
	for _, idx := range addedIdx {
		chain, keys, ok := r.list[idx].replayInto(prev.Rules, r.chainBuf[:0], r.keyBuf[:0])
		r.chainBuf, r.keyBuf = chain, keys
		if !ok {
			// From-scratch synthesis would have repaired; defer to it.
			return r.rebuild()
		}
		r.run.addChain(chain)
		r.commit(idx, chain, keys)
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
func (r *Resynth) applyNewRules(remChains [][]uint32, addedIdx []int) (*System, error) {
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

	r.run.changed = false
	for _, c := range remChains {
		r.run.removeChain(c)
	}

	// Collect the live paths whose replay consulted a key whose table
	// entry changed (value change, removal, or addition at a previously-
	// missed key). Reads through the index drop stale entries as they go;
	// dormant entries (parked slots) are kept but not collected.
	if cap(r.seen) < len(r.list) {
		r.seen = make([]bool, len(r.list))
	}
	seen := r.seen[:len(r.list)]
	affected := r.affectBuf[:0]
	collect := func(k uint64) {
		entries, ok := r.keyIdx[k]
		if !ok {
			return
		}
		kept := entries[:0]
		for _, en := range entries {
			idx, ver := int(en>>32), uint32(en)
			e := &r.list[idx]
			if e.ver != ver {
				r.idxStale--
				continue
			}
			kept = append(kept, en)
			if r.lives[idx] && !seen[idx] {
				seen[idx] = true
				affected = append(affected, idx)
			}
		}
		if len(kept) == 0 {
			delete(r.keyIdx, k)
		} else {
			r.keyIdx[k] = kept
		}
	}
	for k, v := range prev.Rules.rules {
		if nv, ok := rules.rules[k]; !ok || nv != v {
			collect(uint64(k))
		}
	}
	for k := range rules.rules {
		if _, ok := prev.Rules.rules[k]; !ok {
			collect(uint64(k))
		}
	}
	r.affectBuf = affected

	replays := 0
	for _, idx := range addedIdx {
		chain, keys, ok := r.list[idx].replayInto(rules, r.chainBuf[:0], r.keyBuf[:0])
		r.chainBuf, r.keyBuf = chain, keys
		if !ok {
			return r.rebuild()
		}
		r.run.addChain(chain)
		r.commit(idx, chain, keys)
		replays++
	}
	for _, idx := range affected {
		seen[idx] = false
		e := &r.list[idx]
		chain, keys, ok := e.replayInto(rules, r.chainBuf[:0], r.keyBuf[:0])
		r.chainBuf, r.keyBuf = chain, keys
		if !ok {
			return r.rebuild()
		}
		replays++
		if chainsEqual(chain, e.chain) {
			continue // the touched rules resolved to the same trajectory
		}
		r.run.removeChain(e.chain)
		r.run.addChain(chain)
		r.commit(idx, chain, keys)
	}
	telemetry.Default.Counter("resynth_replays_total").Add(int64(replays))

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

// ApplySet diffs the given path set against the tracked one and applies
// the delta — the entry point for policy re-evaluation (e.g. after a pod
// expansion re-enumerates ELP paths).
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
	var removed []routing.Path
	tracked := r.ix.Paths()
	for i, alive := range r.lives {
		if !alive {
			continue
		}
		if _, ok := want.Find(tracked[i]); !ok {
			removed = append(removed, tracked[i])
		}
	}
	return r.Apply(added, removed)
}

// compact drops parked slots once they dominate the path list, and sweeps
// the key index once stale entries dominate it. Both rebuilds are O(live
// state) and amortize against the churn that made the garbage.
func (r *Resynth) compact() {
	if r.dead > len(r.list)/2 && r.dead > 0 {
		n := len(r.list) - r.dead
		old, oldList, oldLives := r.ix.Paths(), r.list, r.lives
		r.ix = routing.PathIndex{}
		r.ix.Reserve(n)
		r.list, r.lives, r.dead = make([]rsPath, 0, n), make([]bool, 0, n), 0
		for i, alive := range oldLives {
			if alive {
				r.track(old[i], oldList[i])
			}
		}
		r.seen = nil
		r.rebuildIndex() // entry idx fields shifted
		return
	}
	if r.idxStale > r.idxLive && r.idxStale > 4096 {
		r.rebuildIndex()
	}
}
