package check

import (
	"fmt"
	"reflect"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/tcam"
	"repro/internal/topology"
)

// RuleDiff records one rule-level divergence between two rulesets.
type RuleDiff struct {
	Rule    core.Rule // match fields + A's rewrite (NewTag = -1: absent in A)
	NewTagB int       // B's rewrite for the same match (-1: absent in B)
}

func (d RuleDiff) String() string {
	return fmt.Sprintf("rule (sw=%d tag=%d in=%d out=%d): A rewrites to %d, B to %d",
		d.Rule.Switch, d.Rule.Tag, d.Rule.In, d.Rule.Out, d.Rule.NewTag, d.NewTagB)
}

// DiffRulesets compares two rulesets rule for rule and returns every
// divergence: matches present in one but not the other, and matches
// rewritten differently. Empty means rule-level identical.
func DiffRulesets(a, b *core.Ruleset) []RuleDiff {
	type match struct {
		sw           topology.NodeID
		tag, in, out int
	}
	am := make(map[match]int, a.Len())
	for _, r := range a.Rules() {
		am[match{r.Switch, r.Tag, r.In, r.Out}] = r.NewTag
	}
	var diffs []RuleDiff
	seen := make(map[match]bool, b.Len())
	for _, r := range b.Rules() {
		m := match{r.Switch, r.Tag, r.In, r.Out}
		seen[m] = true
		if nt, ok := am[m]; !ok {
			diffs = append(diffs, RuleDiff{
				Rule:    core.Rule{Switch: m.sw, Tag: m.tag, In: m.in, Out: m.out, NewTag: -1},
				NewTagB: r.NewTag,
			})
		} else if nt != r.NewTag {
			diffs = append(diffs, RuleDiff{Rule: r, NewTagB: r.NewTag})
			diffs[len(diffs)-1].Rule.NewTag = nt
		}
	}
	for _, r := range a.Rules() {
		if !seen[match{r.Switch, r.Tag, r.In, r.Out}] {
			diffs = append(diffs, RuleDiff{Rule: r, NewTagB: -1})
		}
	}
	return diffs
}

// DiffParallelism synthesizes the same input serially and with par
// workers and demands bit-identical output at every layer: rules (rule
// for rule), max tag, conflicts, repairs, the three tagged graphs, and
// the compressed TCAM image; the parallel system must also pass the
// oracle. Any divergence means the deterministic-parallelism contract
// of internal/sweep broke somewhere.
func DiffParallelism(g *topology.Graph, paths []routing.Path, par int) error {
	serial, err := core.Synthesize(g, paths, core.Options{Workers: 1})
	if err != nil {
		return fmt.Errorf("check: serial synthesis failed: %w", err)
	}
	parl, err := core.Synthesize(g, paths, core.Options{Workers: par})
	if err != nil {
		return fmt.Errorf("check: par=%d synthesis failed: %w", par, err)
	}
	if err := sameSystem(parl, serial); err != nil {
		return fmt.Errorf("check: par=1 vs par=%d: %w", par, err)
	}
	if len(serial.Repairs) != len(parl.Repairs) {
		return fmt.Errorf("check: par=1 vs par=%d repair count: %d vs %d",
			par, len(serial.Repairs), len(parl.Repairs))
	}
	rules := serial.Rules.Rules()
	if !reflect.DeepEqual(tcam.CompressN(rules, 1), tcam.CompressN(rules, par)) {
		return fmt.Errorf("check: par=1 vs par=%d compressed TCAM images diverge", par)
	}
	return nil
}

// SchemeReport is the outcome of the Algorithm 1 / Algorithm 2 / Clos
// scheme differential. The schemes legitimately install different rules,
// so they are compared on semantics: every scheme must keep every ELP
// path lossless, re-verify under the oracle, and obey the provable queue-
// count ordering (Alg2 never needs more queues than Alg1; on Clos the
// specific scheme achieves the k+1 lower bound no scheme can beat).
type SchemeReport struct {
	Alg1Queues int
	Alg2Queues int
	ClosQueues int // 0 when the Clos scheme was not applicable
}

// DiffSchemes runs the scheme differential. closBase and maxBounces
// describe the Clos-specific scheme's input (its ELP must stay inside the
// bounce budget); both zero-valued skip that scheme.
func DiffSchemes(g *topology.Graph, paths []routing.Path, closBase []routing.Path, maxBounces int) (*SchemeReport, error) {
	rep := &SchemeReport{}
	alg1, err := core.Synthesize(g, paths, core.Options{SkipMerge: true, Workers: 1})
	if err != nil {
		return nil, fmt.Errorf("check: algorithm 1 synthesis failed: %w", err)
	}
	alg2, err := core.Synthesize(g, paths, core.Options{Workers: 1})
	if err != nil {
		return nil, fmt.Errorf("check: algorithm 2 synthesis failed: %w", err)
	}
	for name, s := range map[string]*core.System{"algorithm 1": alg1, "algorithm 2": alg2} {
		if err := VerifySystem(s); err != nil {
			return nil, fmt.Errorf("check: %s fails the oracle: %w", name, err)
		}
	}
	rep.Alg1Queues = alg1.NumLosslessQueues()
	rep.Alg2Queues = alg2.NumLosslessQueues()
	if rep.Alg2Queues > rep.Alg1Queues {
		return nil, fmt.Errorf("check: greedy merge grew the queue count: alg1=%d alg2=%d",
			rep.Alg1Queues, rep.Alg2Queues)
	}

	if len(closBase) > 0 {
		clos, err := core.ClosSynthesize(g, closBase, maxBounces)
		if err != nil {
			return nil, fmt.Errorf("check: clos scheme synthesis failed: %w", err)
		}
		if err := VerifyGraph(clos.Runtime); err != nil {
			return nil, fmt.Errorf("check: clos runtime graph fails the oracle: %w", err)
		}
		if err := VerifyCoverage(clos.Rules, closBase, 1); err != nil {
			return nil, fmt.Errorf("check: clos scheme loses an ELP path: %w", err)
		}
		rep.ClosQueues = clos.Runtime.NumSwitchTags()
		// The §4.4 bound k+1 is an upper bound by construction here; the
		// matching lower bound binds only when the ELP actually realizes
		// k-bounce paths, which tiny fuzzed fabrics may not, so only the
		// provable direction is asserted.
		if want := core.MinLosslessQueues(maxBounces); rep.ClosQueues > want {
			return nil, fmt.Errorf("check: clos scheme uses %d queues, provable optimum is %d",
				rep.ClosQueues, want)
		}
	}
	return rep, nil
}
