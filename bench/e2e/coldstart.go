package main

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/check"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/elp"
	"repro/internal/fingerprint"
	"repro/internal/synthcache"
	"repro/internal/tcam"
	"repro/internal/topology"
)

// jellyfish is coldstart_jellyfish200 and warmstart_jellyfish200: one
// seeded Jellyfish fabric brought from its description to a fleet that
// is active and readback-verified, through controller.NewGeneric with a
// synthesis cache and a fault-free chaos.Fabric. The cold variant gives
// every op a fresh cache; the warm variant shares one cache that set-up
// filled, so every op is a shared hit.
type jellyfish struct {
	warm  bool
	seed  int64
	sz    sizes
	cfg   topology.JellyfishConfig
	j     *topology.Jellyfish
	names []string
	cache *synthcache.Cache // warm variant only

	starts, hits int // timed starts, and those the cache served
}

func setupJellyfish(warm bool) func(int64, sizes, *recorder) (instance, error) {
	return func(seed int64, sz sizes, rec *recorder) (instance, error) {
		w := &jellyfish{warm: warm, seed: seed, sz: sz,
			cfg: topology.JellyfishConfig{Switches: sz.jellyfishSwitches, Ports: sz.jellyfishPorts, Seed: seed}}
		var err error
		rec.span("topology.build", func() { w.j, err = topology.NewJellyfish(w.cfg) })
		if err != nil {
			return nil, fmt.Errorf("building jellyfish: %w", err)
		}
		w.names = switchNames(w.j.Graph)
		if warm {
			w.cache = synthcache.New(8)
			if _, _, err := w.start(w.cache, w.policy); err != nil {
				return nil, fmt.Errorf("filling the cache: %w", err)
			}
		}
		return w, nil
	}
}

func (w *jellyfish) policy(g *topology.Graph) *elp.Set { return elp.ShortestAll(g, w.j.Switches) }

// start is the operation: a controller over a new fleet, synthesizing
// through cache under policy.
func (w *jellyfish) start(cache *synthcache.Cache, policy controller.ELPPolicy) (*controller.Controller, *chaos.Fabric, error) {
	fab := chaos.NewFabric(w.names)
	ctl, err := controller.NewGeneric(w.j.Graph, policy,
		controller.WithSynthCache(cache), controller.WithAgent(fab))
	return ctl, fab, err
}

func (w *jellyfish) opCache() *synthcache.Cache {
	if w.warm {
		return w.cache
	}
	return synthcache.New(8)
}

func (w *jellyfish) op(rec *recorder) error {
	cache := w.opCache()
	before := cache.Stats()
	var ctl *controller.Controller
	var err error
	rec.span("controller.start", func() { ctl, _, err = w.start(cache, w.policy) })
	if err != nil {
		return err
	}
	hit := cache.Stats().Hits > before.Hits
	w.starts++
	if hit {
		w.hits++
	}
	if hit != w.warm {
		return fmt.Errorf("cache hit = %v on a start that must be warm = %v", hit, w.warm)
	}
	if ctl.Bundle() == nil {
		return fmt.Errorf("controller holds no active bundle")
	}
	return nil
}

func (w *jellyfish) minOps() int { return 1 }

func (w *jellyfish) gate(rec *recorder, m metricSet) error {
	ctl, fab, err := w.start(w.opCache(), w.policy)
	if err != nil {
		return err
	}
	sys, bundle := ctl.System(), ctl.Bundle()
	var oracleErr error
	rec.span("check.oracle", func() { oracleErr = check.VerifySystem(sys) })
	if oracleErr != nil {
		return fmt.Errorf("oracle: %w", oracleErr)
	}
	if d := deploy.Diff(fab.ActiveBundle(bundle.MaxTag), bundle); len(d) != 0 {
		return fmt.Errorf("fleet diverges from the controller's bundle on %d switches", len(d))
	}
	if err := checkFrames(w.j.Graph, sys.Rules, sys.ELP, w.seed, w.sz.frameSamples, m); err != nil {
		return err
	}

	audit := ctl.Audit()
	retries := 0
	for _, a := range audit {
		if a.Attempt > 1 {
			retries++
		}
	}
	m["core.alg1_tags"] = float64(sys.BruteForce.NumTags())
	m["core.alg2_tags"] = float64(sys.Merged.NumTags())
	if err := systemCounts(m, sys, bundle, w.names); err != nil {
		return err
	}
	m["controller.rpcs_per_op"] = float64(fab.Calls())
	m["controller.rpc_retries"] = float64(retries)
	m["controller.audit_entries"] = float64(len(audit))
	return nil
}

// systemCounts records the exact counts every synthesized system has:
// ELP size, rules, lossless queues (the paper's two costs: queues and
// TCAM entries per switch), and the size and shape of its bundle.
func systemCounts(m metricSet, sys *core.System, bundle *deploy.Bundle, names []string) error {
	m["elp.paths"] = float64(len(sys.ELP))
	m["core.rules_total"] = float64(sys.Rules.Len())
	m["core.lossless_queues"] = float64(sys.NumLosslessQueues())
	entries := tcam.Compress(sys.Rules.Rules())
	m["tcam.entries_total"] = float64(len(entries))
	m["tcam.entries_per_rule"] = float64(len(entries)) / float64(sys.Rules.Len())
	m["tcam.max_entries"] = float64(tcam.MaxPerSwitch(entries))
	data, err := bundle.Marshal()
	if err != nil {
		return fmt.Errorf("marshalling the bundle: %w", err)
	}
	m["deploy.bundle_kb"] = float64(len(data)) / 1024
	m["deploy.groups"] = float64(len(deploy.GroupIdentical(bundle, names)))
	return nil
}

// staged attributes the start to its layers. Both variants end with a
// controller start whose ELP is precomputed and whose cache is warm,
// which isolates verify + export + two-phase push.
func (w *jellyfish) staged(rec *recorder) error {
	if w.warm {
		return w.stagedWarm(rec)
	}
	return w.stagedCold(rec)
}

// stagedWarm splits a warm start into its three parts: enumerating the
// ELP, the cache hit as a controller sees it (a new path list, so the
// hit pays for hashing it), and the push.
func (w *jellyfish) stagedWarm(rec *recorder) error {
	g := w.j.Graph
	var set *elp.Set
	rec.span("elp.enumerate", func() { set = w.policy(g) })
	var hit synthcache.Result
	var err error
	rec.span("synthcache.warm_hit", func() { hit, err = w.cache.Synthesize(g, set.Paths(), core.Options{}) })
	if err != nil || !hit.Hit {
		return fmt.Errorf("request on the filled cache: hit=%v err=%v", hit.Hit, err)
	}
	rec.span("controller.deploy", func() {
		_, _, err = w.start(w.cache, func(*topology.Graph) *elp.Set { return set })
	})
	return err
}

// stagedCold performs a cold start one public layer function at a time,
// in core.Synthesize's own order, on a graph of its own so that nothing
// is served from a memo. It then times the whole of core.Synthesize and
// of a cold cache fill as cross-checks (cold ≥ synthesize + fingerprint +
// compile) and a hit on the same path list (a pure lookup).
func (w *jellyfish) stagedCold(rec *recorder) error {
	var j *topology.Jellyfish
	var err error
	rec.span("topology.build", func() { j, err = topology.NewJellyfish(w.cfg) })
	if err != nil {
		return err
	}
	g := j.Graph
	var set *elp.Set
	rec.span("elp.enumerate", func() { set = elp.ShortestAll(g, j.Switches) })
	paths := set.Paths()
	// The cache key needs the canonical labelling and the path hash; both
	// are the fingerprint layer's share of a miss.
	rec.span("fingerprint.canonicalize", func() {
		fingerprint.PathsSum(fingerprint.Canonicalize(g), paths)
	})

	var bf, merged, runtime *core.TaggedGraph
	var rules *core.Ruleset
	verify := func(tg *core.TaggedGraph) {
		rec.span("core.verify", func() {
			if e := tg.Verify(); e != nil && err == nil {
				err = e
			}
		})
	}
	rec.span("core.alg1", func() { bf = core.BruteForceN(g, paths, 0) })
	verify(bf)
	rec.span("core.alg2", func() { merged = core.GreedyMinimize(bf) })
	verify(merged)
	rec.span("core.rules", func() { rules, _ = core.DeriveRules(merged) })
	rec.span("core.runtime", func() { runtime, _ = core.BuildRuleGraph(rules, paths, 1) })
	verify(runtime)
	if err != nil {
		return fmt.Errorf("staged synthesis: %w", err)
	}
	rec.span("tcam.compile", func() { tcam.NewCompiled(rules, 0) })
	if _, _, err := roundTrip(rec, g, rules); err != nil {
		return err
	}
	rec.span("core.synthesize", func() { _, err = core.Synthesize(g, paths, core.Options{}) })
	if err != nil {
		return err
	}

	cache := synthcache.New(8)
	rec.span("synthcache.cold", func() { _, err = cache.Synthesize(g, paths, core.Options{}) })
	if err != nil {
		return err
	}
	var hit synthcache.Result
	rec.span("synthcache.warm_hit", func() { hit, err = cache.Synthesize(g, paths, core.Options{}) })
	if err != nil || !hit.Hit {
		return fmt.Errorf("second request on a filled cache: hit=%v err=%v", hit.Hit, err)
	}
	rec.span("controller.deploy", func() {
		_, err = controller.NewGeneric(g, func(*topology.Graph) *elp.Set { return set },
			controller.WithSynthCache(cache), controller.WithAgent(chaos.NewFabric(w.names)))
	})
	return err
}

// finish reports the share of the timed starts that the cache served:
// 0 for the cold variant, 1 for the warm one.
func (w *jellyfish) finish(m metricSet) error {
	if w.starts > 0 {
		m["synthcache.hit_ratio"] = float64(w.hits) / float64(w.starts)
	}
	return nil
}

// roundTrip exports rules to a deployment bundle, serialises it, and
// imports it back over g, each step under its own span. It returns the
// bundle and the imported rules, having checked only that none went
// missing; the gate compares them rule by rule.
func roundTrip(rec *recorder, g *topology.Graph, rules *core.Ruleset) (*deploy.Bundle, *core.Ruleset, error) {
	var bundle, back *deploy.Bundle
	var data []byte
	var imported *core.Ruleset
	var err error
	rec.span("deploy.export", func() { bundle = deploy.Export(rules) })
	rec.span("deploy.marshal", func() { data, err = bundle.Marshal() })
	if err != nil {
		return nil, nil, fmt.Errorf("marshalling the bundle: %w", err)
	}
	rec.span("deploy.import", func() {
		if back, err = deploy.Unmarshal(data); err == nil {
			imported, err = deploy.Import(g, back)
		}
	})
	if err != nil {
		return nil, nil, fmt.Errorf("importing the bundle: %w", err)
	}
	if imported.Len() != rules.Len() {
		return nil, nil, fmt.Errorf("bundle round trip kept %d of %d rules", imported.Len(), rules.Len())
	}
	return bundle, imported, nil
}

// fatTree is coldstart_fattree8: a k-ary fat-tree synthesized through
// the cache's pod-memoized ClosKBounce, exported, serialised and
// imported back. The controller cannot reach ClosKBounce today, so the
// op stops at the round-tripped bundle.
type fatTree struct {
	seed int64
	sz   sizes
}

func setupFatTree(seed int64, sz sizes, rec *recorder) (instance, error) {
	return &fatTree{seed: seed, sz: sz}, nil
}

// build runs the op up to the synthesized system.
func (w *fatTree) build(rec *recorder) (*topology.FatTree, synthcache.Result, error) {
	var ft *topology.FatTree
	var res synthcache.Result
	var err error
	rec.span("topology.build", func() { ft, err = topology.NewFatTree(w.sz.fatTreeK) })
	if err != nil {
		return nil, res, fmt.Errorf("building fat-tree: %w", err)
	}
	cache := synthcache.New(8)
	rec.span("synthcache.closkbounce", func() { res, err = cache.ClosKBounce(ft.Graph, ft.Edges, 1) })
	if err != nil {
		return nil, res, err
	}
	if !res.PodMemoized {
		return nil, res, fmt.Errorf("ClosKBounce did not use pod stamping")
	}
	return ft, res, nil
}

func (w *fatTree) op(rec *recorder) error {
	ft, res, err := w.build(rec)
	if err != nil {
		return err
	}
	_, _, err = roundTrip(rec, ft.Graph, res.Sys.Rules)
	return err
}

func (w *fatTree) minOps() int { return 1 }

func (w *fatTree) gate(rec *recorder, m metricSet) error {
	ft, res, err := w.build(nil)
	if err != nil {
		return err
	}
	sys := res.Sys
	var oracleErr error
	rec.span("check.oracle", func() { oracleErr = check.VerifySystem(sys) })
	if oracleErr != nil {
		return fmt.Errorf("oracle: %w", oracleErr)
	}
	bundle, imported, err := roundTrip(nil, ft.Graph, sys.Rules)
	if err != nil {
		return err
	}
	if d := check.DiffRulesets(sys.Rules, imported); len(d) != 0 {
		return fmt.Errorf("imported rules differ from the source (%d diffs; first: %s)", len(d), d[0])
	}
	if err := checkFrames(ft.Graph, sys.Rules, sys.ELP, w.seed, w.sz.frameSamples, m); err != nil {
		return err
	}

	m["synthcache.pod_stamped"] = 1
	return systemCounts(m, sys, bundle, switchNames(ft.Graph))
}

// staged times the two fingerprint steps ClosKBounce performs inside,
// and the TCAM compile, on a graph of their own.
func (w *fatTree) staged(rec *recorder) error {
	ft, err := topology.NewFatTree(w.sz.fatTreeK)
	if err != nil {
		return err
	}
	rec.span("fingerprint.canonicalize", func() { fingerprint.Canonicalize(ft.Graph) })
	var ok bool
	rec.span("fingerprint.pod_decompose", func() { _, ok = fingerprint.Decompose(ft.Graph) })
	if !ok {
		return fmt.Errorf("fat-tree did not decompose into pods")
	}
	rec.span("tcam.compile", func() { tcam.NewCompiled(core.ClosRules(ft.Graph, 1, 1), 0) })
	return nil
}

func (w *fatTree) finish(metricSet) error { return nil }
