package check

import (
	"fmt"
	"reflect"

	"repro/internal/core"
	"repro/internal/tcam"
	"repro/internal/topology"
)

// DecisionDiff records one (switch, tag, in, out) probe where two
// classification implementations disagreed: Want is the first one's
// decision (the reference side), Got the second's.
type DecisionDiff struct {
	Switch       topology.NodeID
	Tag, In, Out int
	Legacy       bool
	Want, Got    tcam.QueueDecision
}

func (d DecisionDiff) String() string {
	return fmt.Sprintf("decision (sw=%d tag=%d in=%d out=%d legacy=%v): want %+v, got %+v",
		d.Switch, d.Tag, d.In, d.Out, d.Legacy, d.Want, d.Got)
}

// Decide is one classification implementation under differential test.
type Decide func(sw topology.NodeID, tag, in, out int) tcam.QueueDecision

// DiffDecisions probes every (switch, tag, in, out) combination — tags 0
// through maxTag+1 to cover the lossy and out-of-range edges, all port
// pairs — through two implementations and records every disagreement.
// The legacy flag only labels the diffs; callers flip the ablation mode
// on the implementations themselves.
func DiffDecisions(g *topology.Graph, maxTag int, legacy bool, want, got Decide) []DecisionDiff {
	var diffs []DecisionDiff
	for _, sw := range g.Switches() {
		nPorts := g.PortCount(sw)
		for tag := 0; tag <= maxTag+1; tag++ {
			for in := 0; in < nPorts; in++ {
				for out := 0; out < nPorts; out++ {
					dw := want(sw, tag, in, out)
					dg := got(sw, tag, in, out)
					if dw != dg {
						diffs = append(diffs, DecisionDiff{
							Switch: sw, Tag: tag, In: in, Out: out, Legacy: legacy,
							Want: dw, Got: dg,
						})
					}
				}
			}
		}
	}
	return diffs
}

// classified is the reference implementation: Ruleset.Classify for the
// rewrite, with the §7 queue mapping written out here rather than taken
// from tcam — lossless tag t rides queue t, anything else queue 0, and
// the legacy ablation keeps a still-lossless packet in its old queue.
func classified(rs *core.Ruleset, legacy bool) Decide {
	queue := func(tag int) int {
		if rs.IsLossless(tag) {
			return tag
		}
		return 0
	}
	return func(sw topology.NodeID, tag, in, out int) tcam.QueueDecision {
		d := tcam.QueueDecision{NewTag: rs.Classify(sw, tag, in, out)}
		d.IngressQueue = queue(tag)
		d.EgressQueue = queue(d.NewTag)
		if legacy && d.NewTag != core.LossyTag {
			d.EgressQueue = queue(tag)
		}
		return d
	}
}

// pipelines runs each switch's tcam.Pipeline over its table. The
// decision's rule ID is dropped: it indexes the list the table was
// compiled from (rules or compressed entries), which the reference and
// the other table do not share.
func pipelines(tables []*tcam.Table, maxTag int, legacy bool) Decide {
	return func(sw topology.NodeID, tag, in, out int) tcam.QueueDecision {
		pl := tcam.NewPipeline(tables[sw], maxTag)
		pl.LegacyEgressByOldTag = legacy
		d := pl.Process(tag, in, out)
		d.Rule = 0
		return d
	}
}

// DiffDecisionsExhaustive compares three implementations of the §7
// decision under both the correct egress mapping and the legacy
// (egress-by-old-tag) ablation: Ruleset.Classify against the tables
// compiled from the ruleset, and those against the tables compiled from
// the compressed image — cell for cell. Compression is only legal because
// the Figure 9 merges are exact cross products; this is the ground-truth
// check of that claim, decision for decision.
func DiffDecisionsExhaustive(rs *core.Ruleset, par int) []DecisionDiff {
	g := rs.Graph()
	exact, _ := tcam.Compile(rs)
	compressed := tcam.NewCompiled(rs, par).Tables()
	var diffs []DecisionDiff
	for _, legacy := range []bool{false, true} {
		fromRules := pipelines(exact, rs.MaxTag(), legacy)
		diffs = append(diffs, DiffDecisions(g, rs.MaxTag(), legacy, classified(rs, legacy), fromRules)...)
		diffs = append(diffs, DiffDecisions(g, rs.MaxTag(), legacy, fromRules, pipelines(compressed, rs.MaxTag(), legacy))...)
	}
	return diffs
}

// DiffCompiledParallelism compresses the same ruleset serially and with
// par workers and demands entry-for-entry identical per-switch TCAM
// images. Canonical (trimmed) bitmaps make struct equality meaningful.
func DiffCompiledParallelism(rs *core.Ruleset, par int) error {
	a := tcam.NewCompiled(rs, 1)
	b := tcam.NewCompiled(rs, par)
	if ta, tb := a.TotalEntries(), b.TotalEntries(); ta != tb {
		return fmt.Errorf("check: compiled par=1 has %d entries, par=%d has %d", ta, par, tb)
	}
	for _, sw := range rs.Graph().Switches() {
		if !reflect.DeepEqual(a.Entries(sw), b.Entries(sw)) {
			return fmt.Errorf("check: compiled entries diverge at switch %d between par=1 and par=%d", sw, par)
		}
	}
	return nil
}
