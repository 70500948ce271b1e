package check

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/elp"
	"repro/internal/tcam"
	"repro/internal/topology"
)

func paperTestbed(t *testing.T) *topology.Clos {
	t.Helper()
	c, err := topology.NewClos(topology.PaperTestbed())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// twoSwitches returns a minimal topology for hand-built tagged graphs:
// two adjacent switches, each also holding one host.
func twoSwitches(t *testing.T) (*topology.Graph, topology.NodeID, topology.NodeID) {
	t.Helper()
	g := topology.New()
	a := g.AddNode("A", topology.KindSwitch, -1)
	b := g.AddNode("B", topology.KindSwitch, -1)
	g.Connect(a, b)
	ha := g.AddNode("HA", topology.KindHost, 0)
	hb := g.AddNode("HB", topology.KindHost, 0)
	g.Connect(ha, a)
	g.Connect(hb, b)
	return g, a, b
}

// TestOracleAgreesOnHealthySystem: a full synthesis over the paper
// testbed passes both the production verifier and the independent oracle.
func TestOracleAgreesOnHealthySystem(t *testing.T) {
	c := paperTestbed(t)
	paths := elp.KBounce(c.Graph, c.ToRs, 1, nil)
	s, err := core.Synthesize(c.Graph, paths.Paths(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Runtime.Verify(); err != nil {
		t.Fatalf("production verifier: %v", err)
	}
	if err := VerifySystem(s); err != nil {
		t.Fatalf("oracle: %v", err)
	}
}

// TestOracleCatchesSameTagCycle: both the production verifier and the
// oracle must reject a per-tag cycle, independently.
func TestOracleCatchesSameTagCycle(t *testing.T) {
	g, a, b := twoSwitches(t)
	tg := core.NewTaggedGraph(g)
	na := core.TagNode{Port: g.PortOn(a, 0), Tag: 1}
	nb := core.TagNode{Port: g.PortOn(b, 0), Tag: 1}
	tg.AddEdge(na, nb)
	tg.AddEdge(nb, na)
	if err := tg.Verify(); err == nil {
		t.Error("production verifier missed the cycle")
	}
	if err := VerifyGraph(tg); err == nil {
		t.Error("oracle missed the cycle")
	} else if !strings.Contains(err.Error(), "acyclicity") {
		t.Errorf("wrong oracle verdict: %v", err)
	}
}

// TestOracleCatchesTagDecrease: requirement 2, independently re-checked.
func TestOracleCatchesTagDecrease(t *testing.T) {
	g, a, b := twoSwitches(t)
	tg := core.NewTaggedGraph(g)
	tg.AddEdge(core.TagNode{Port: g.PortOn(a, 0), Tag: 2}, core.TagNode{Port: g.PortOn(b, 0), Tag: 1})
	if err := tg.Verify(); err == nil {
		t.Error("production verifier missed the decreasing edge")
	}
	if err := VerifyGraph(tg); err == nil {
		t.Error("oracle missed the decreasing edge")
	} else if !strings.Contains(err.Error(), "monotonicity") {
		t.Errorf("wrong oracle verdict: %v", err)
	}
}

// TestOracleCoverageCatchesMissingRules: an empty ruleset cannot keep a
// fabric-interior path lossless, and the oracle's independent replay must
// say so.
func TestOracleCoverageCatchesMissingRules(t *testing.T) {
	c := paperTestbed(t)
	paths := elp.KBounce(c.Graph, c.ToRs, 1, nil)
	empty := core.NewRuleset(c.Graph, 2)
	if err := VerifyCoverage(empty, paths.Paths(), 1); err == nil {
		t.Error("oracle accepted an empty ruleset")
	}
}

// cloneRules copies a ruleset rule for rule.
func cloneRules(rs *core.Ruleset) *core.Ruleset {
	out := core.NewRuleset(rs.Graph(), rs.MaxTag())
	for _, r := range rs.Rules() {
		out.Add(r)
	}
	return out
}

// TestDiffRulesetsPinsDivergence: identical rulesets diff empty; a single
// mutated rewrite, a missing rule, and an extra rule are each reported.
func TestDiffRulesetsPinsDivergence(t *testing.T) {
	c := paperTestbed(t)
	rs := core.ClosRules(c.Graph, 1, 1)
	if d := DiffRulesets(rs, cloneRules(rs)); len(d) != 0 {
		t.Fatalf("identical rulesets diff: %v", d)
	}

	mut := cloneRules(rs)
	victim := rs.Rules()[0]
	victim.NewTag++
	mut.Add(victim)
	d := DiffRulesets(rs, mut)
	if len(d) != 1 || d[0].NewTagB != victim.NewTag {
		t.Errorf("mutated rewrite: got %v", d)
	}

	extra := cloneRules(rs)
	// in == out never occurs in generated rules, so this key is new.
	extra.Add(core.Rule{Switch: victim.Switch, Tag: rs.MaxTag(), In: victim.In, Out: victim.In, NewTag: rs.MaxTag()})
	if d := DiffRulesets(rs, extra); len(d) == 0 {
		t.Error("extra rule not reported")
	}
}

// TestDiffDecisionsCatchesSingleDivergence: the exhaustive decision diff
// is empty for a faithful compilation and reports a deliberately
// corrupted decision exactly once.
func TestDiffDecisionsCatchesSingleDivergence(t *testing.T) {
	c := paperTestbed(t)
	rs := core.ClosRules(c.Graph, 1, 1)
	if d := DiffDecisionsExhaustive(rs, 2); len(d) != 0 {
		t.Fatalf("faithful compilation diffs: %v", d[0])
	}

	exact, _ := tcam.Compile(rs)
	compiled := pipelines(tcam.NewCompiled(rs, 1).Tables(), rs.MaxTag(), false)
	badSw := c.Leaves[0]
	corrupted := func(sw topology.NodeID, tag, in, out int) tcam.QueueDecision {
		d := compiled(sw, tag, in, out)
		if sw == badSw && tag == 1 && in == 0 && out == 1 {
			// A lost compression bit turns a hit into a safeguard miss.
			d.NewTag = core.LossyTag
			d.EgressQueue = 0
		}
		return d
	}
	d := DiffDecisions(c.Graph, rs.MaxTag(), false, pipelines(exact, rs.MaxTag(), false), corrupted)
	if len(d) != 1 {
		t.Fatalf("corrupted decision reported %d times, want 1: %v", len(d), d)
	}
	if d[0].Switch != badSw || d[0].Tag != 1 || d[0].In != 0 || d[0].Out != 1 {
		t.Errorf("wrong probe pinned: %+v", d[0])
	}
}

// TestDiffParallelismTestbed: serial and parallel synthesis are
// bit-identical on the paper testbed, ELP extended with random paths.
func TestDiffParallelismTestbed(t *testing.T) {
	c := paperTestbed(t)
	paths := elp.KBounce(c.Graph, c.ToRs, 1, nil)
	elp.AddRandomPaths(paths, c.Graph, c.ToRs, 8, 8, 11)
	for _, par := range []int{2, 4, 0} {
		if err := DiffParallelism(c.Graph, paths.Paths(), par); err != nil {
			t.Errorf("par=%d: %v", par, err)
		}
	}
}

// TestDiffSchemesTestbed: the three synthesis schemes agree semantically
// on the paper testbed and the queue-count ordering holds.
func TestDiffSchemesTestbed(t *testing.T) {
	c := paperTestbed(t)
	base := elp.KBounce(c.Graph, c.ToRs, 1, nil)
	ext := elp.NewSet()
	if err := ext.AddAll(c.Graph, base.Paths()); err != nil {
		t.Fatal(err)
	}
	elp.AddRandomPaths(ext, c.Graph, c.ToRs, 5, 8, 23)
	rep, err := DiffSchemes(c.Graph, ext.Paths(), base.Paths(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Alg2Queues > rep.Alg1Queues {
		t.Errorf("queue ordering: alg1=%d alg2=%d", rep.Alg1Queues, rep.Alg2Queues)
	}
	if rep.ClosQueues < 1 || rep.ClosQueues > core.MinLosslessQueues(1) {
		t.Errorf("clos queues = %d, want in [1, %d]", rep.ClosQueues, core.MinLosslessQueues(1))
	}
}

// TestReplayPathsCatchesLossyELP: replay with RequireLossless rejects a
// ruleset that demotes an ELP path.
func TestReplayPathsCatchesLossyELP(t *testing.T) {
	c := paperTestbed(t)
	// One bounce needs tag 2; a 0-bounce-only ruleset must drop it.
	rs := core.ClosRules(c.Graph, 0, 1)
	paths := elp.KBounce(c.Graph, c.ToRs, 1, nil)
	err := ReplayPaths(rs, paths.Paths(), ReplayOpts{RequireLossless: true, Par: 2})
	if err == nil {
		t.Error("bounce path survived a 0-bounce ruleset")
	}
}

// TestRunCaseSeeds: the full battery runs clean on fixed seeds of every
// topology family — the deterministic core of the fuzz loop.
func TestRunCaseSeeds(t *testing.T) {
	for _, topo := range Topos() {
		topo := topo
		t.Run(topo, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 4; seed++ {
				c := GenCase(topo, seed)
				if !c.validConfig() {
					t.Fatalf("GenCase produced invalid config: %s", c)
				}
				if err := RunCase(c); err != nil {
					t.Errorf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// TestShrinkGreedyDescent: the shrinker reaches the minimal case for a
// synthetic predicate and never proposes an invalid configuration.
func TestShrinkGreedyDescent(t *testing.T) {
	start := Case{
		Topo: "clos", Seed: 99,
		Pods: 3, ToRsPerPod: 2, LeafsPerPod: 2, Spines: 2, HostsPerToR: 2,
		MaxBounces: 2, ExtraPaths: 5, Deviations: 7, Workers: 4,
	}
	probes := 0
	fails := func(c Case) bool {
		probes++
		if !c.validConfig() {
			t.Errorf("shrinker probed invalid config: %s", c)
		}
		return c.Pods >= 2 || c.ExtraPaths >= 3
	}
	got := Shrink(start, fails)
	if !fails(got) {
		t.Fatalf("shrunk case no longer fails: %s", got)
	}
	if got.Pods != 1 || got.ExtraPaths != 3 {
		t.Errorf("not minimal: pods=%d extra=%d, want 1, 3", got.Pods, got.ExtraPaths)
	}
	if got.ToRsPerPod != 2 || got.Spines != 1 || got.Deviations != 0 || got.Workers != 2 {
		t.Errorf("satellite knobs not floored: %s", got)
	}
	if probes == 0 {
		t.Error("predicate never probed")
	}
}

// TestReproSourceIsValidGo: the emitted repro parses as Go and carries
// the case verbatim, its mode included, for every mode.
func TestReproSourceIsValidGo(t *testing.T) {
	for _, tc := range []struct {
		c    Case
		want []string
	}{
		{GenCase("clos", 42), []string{"TestRepro_clos_seed42", "Mode: check.Battery", "check.RunCase(c)", "Topo: \"clos\"", "ExtraPaths: "}},
		{Churn.Gen("clos", 42), []string{"TestRepro_churn_clos_seed42", "Mode: check.Churn", "check.RunChurnCase(c)", "PodAdds: "}},
		{Cache.Gen("fattree", 42), []string{"TestRepro_cache_fattree_seed42", "Mode: check.Cache", "check.RunCacheCase(c, nil)", "K: "}},
	} {
		src := ReproSource(tc.c, errFixture{})
		file, err := parser.ParseFile(token.NewFileSet(), "repro.go", src, 0)
		if err != nil {
			t.Fatalf("emitted repro does not parse: %v\n%s", err, src)
		}
		if back := caseFromRepro(file); back != tc.c {
			t.Errorf("repro's case literal reads back as %+v, want %+v", back, tc.c)
		}
		for _, want := range append(tc.want, "multi\n//\tline") {
			if !strings.Contains(src, want) {
				t.Errorf("repro missing %q:\n%s", want, src)
			}
		}
	}
}

// caseFromRepro reads back the check.Case literal of an emitted repro.
func caseFromRepro(file *ast.File) Case {
	var c Case
	ast.Inspect(file, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		for _, e := range lit.Elts {
			kv := e.(*ast.KeyValueExpr)
			field := reflect.ValueOf(&c).Elem().FieldByName(kv.Key.(*ast.Ident).Name)
			switch v := kv.Value.(type) {
			case *ast.SelectorExpr:
				for m := range modes {
					if modes[m].ident == v.Sel.Name {
						field.SetUint(uint64(m))
					}
				}
			case *ast.BasicLit:
				if s, err := strconv.Unquote(v.Value); err == nil {
					field.SetString(s)
				} else {
					n, _ := strconv.ParseInt(v.Value, 10, 64)
					field.SetInt(n)
				}
			}
		}
		return false
	})
	return c
}

type errFixture struct{}

func (errFixture) Error() string { return "boom: multi\nline failure" }
