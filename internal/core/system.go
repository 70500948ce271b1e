package core

import (
	"fmt"

	"repro/internal/routing"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// Options tunes Synthesize.
type Options struct {
	// SkipMerge keeps the brute-force tags (Algorithm 1 only). Used by the
	// ablation benchmarks to quantify what Algorithm 2 buys.
	SkipMerge bool
	// Workers bounds the goroutines each synthesis stage fans out to:
	// 0 means GOMAXPROCS, 1 forces the serial path. Every worker count
	// produces the same system (see internal/sweep).
	Workers int
}

// System is a complete synthesized Tagger deployment for one topology and
// ELP set: the tagging rules to install plus the verified runtime tagged
// graph they induce.
type System struct {
	Graph *topology.Graph
	ELP   []routing.Path

	// BruteForce is Algorithm 1's graph; Merged is Algorithm 2's (nil when
	// Options.SkipMerge, identical tags to BruteForce then).
	BruteForce *TaggedGraph
	Merged     *TaggedGraph

	// Rules is what gets installed on switches.
	Rules *Ruleset

	// Runtime is the tagged graph actual packets traverse under Rules —
	// the graph Verify() proved deadlock-free.
	Runtime *TaggedGraph

	// Conflicts and Repairs record the (rare) rule-consistency fixes; both
	// empty for every topology in the paper's evaluation.
	Conflicts []Conflict
	Repairs   []Repair
}

// NumLosslessQueues returns the number of lossless priorities the system
// needs: the count of distinct tags that can appear on in-flight lossless
// packets.
func (s *System) NumLosslessQueues() int { return s.Runtime.NumTags() }

// Synthesize runs the full pipeline of the paper on any topology and ELP:
// Algorithm 1, Algorithm 2, rule derivation, replay repair, and final
// verification of the runtime graph. The returned system is guaranteed
// deadlock-free; an error means a bug in this package, not bad input
// (any loop-free ELP admits a valid tagging). Paths are tagged from 1, the
// tag NICs stamp on fresh packets; MultiClassSystem offsets later classes.
func Synthesize(g *topology.Graph, paths []routing.Path, opts Options) (*System, error) {
	defer telemetry.Default.StartSpan("synth").End()
	s := &System{Graph: g, ELP: paths}
	// Every stage below reads the ELP in port space, resolved once here
	// (and timed with Algorithm 1, its first reader, as BruteForceN is).
	alg1 := telemetry.Default.StartSpan("synth/alg1")
	hp := newHopPorts(g, paths, opts.Workers)
	s.BruteForce = bruteForce(g, hp, opts.Workers)
	alg1.End()
	if err := s.BruteForce.Verify(); err != nil {
		return nil, fmt.Errorf("brute-force graph: %w", err)
	}
	tagged := s.BruteForce
	if !opts.SkipMerge {
		s.Merged = GreedyMinimize(s.BruteForce)
		if err := s.Merged.Verify(); err != nil {
			return nil, fmt.Errorf("merged graph: %w", err)
		}
		tagged = s.Merged
	}
	s.Rules, s.Conflicts = deriveRulesN(tagged, opts.Workers)
	// Build the runtime graph first: its replay doubles as the repair
	// pre-scan. Only when some path went lossy (possible only after rule
	// conflicts) does the serial repair pass run — followed by a rebuild
	// under the repaired rules.
	var violations []routing.Path
	s.Runtime, violations = buildRuleGraphN(s.Rules, paths, hp, 1, opts.Workers)
	if len(violations) > 0 {
		s.Repairs = repairReplay(s.Rules, paths, hp, 1)
		s.Runtime, violations = buildRuleGraphN(s.Rules, paths, hp, 1, opts.Workers)
	}
	if len(violations) > 0 {
		return nil, fmt.Errorf("core: %d ELP paths not lossless after repair (first: %s)",
			len(violations), violations[0].String(g))
	}
	if err := s.Runtime.Verify(); err != nil {
		return nil, fmt.Errorf("runtime graph: %w", err)
	}
	return s, nil
}
