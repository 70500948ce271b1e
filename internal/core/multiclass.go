package core

import (
	"fmt"

	"repro/internal/routing"
)

// MultiClassSystem is the §6 composition: several application classes
// sharing one tagging system with overlapping tag ranges. Class c's NICs
// stamp tag StartTag(c); all classes share the rewrite rules.
type MultiClassSystem struct {
	System     *System
	NumClasses int
	MaxBounces int
}

// StartTag returns the NIC stamp for application class c (0-based).
func (m *MultiClassSystem) StartTag(c int) int { return c + 1 }

// NumLosslessQueues returns the shared lossless priority count: M + N
// rather than the naive N*(M+1).
func (m *MultiClassSystem) NumLosslessQueues() int {
	return m.MaxBounces + m.NumClasses
}

// MultiClassClos builds the shared-tag multi-class system on a Clos:
// numClasses application classes, each tolerating up to maxBounces
// bounces. Later classes start higher in the shared tag space and so
// tolerate fewer: class c absorbs NumLosslessQueues() - StartTag(c)
// bounces before its packets fall to the lossy queue, the isolation
// trade-off §6 describes. Every class's ELP replay is verified lossless
// within its tolerated bounce budget, and the combined runtime graph is
// verified deadlock-free.
//
// elpByClass[c] is the path set class c must keep lossless. Classes whose
// path sets exceed their tolerated bounces return an error.
func MultiClassClos(sys *System, elpByClass [][]routing.Path, maxBounces int) (*MultiClassSystem, error) {
	n := len(elpByClass)
	if n == 0 {
		return nil, fmt.Errorf("core: no application classes")
	}
	g := sys.Graph
	rules := ClosRules(g, maxBounces, n)
	m := &MultiClassSystem{
		System:     &System{Graph: g, Rules: rules},
		NumClasses: n,
		MaxBounces: maxBounces,
	}
	combined := NewTaggedGraph(g)
	for c, paths := range elpByClass {
		tg, violations := BuildRuleGraph(rules, paths, m.StartTag(c))
		if len(violations) > 0 {
			return nil, fmt.Errorf("core: class %d has %d lossy ELP paths (first: %s)",
				c, len(violations), violations[0].String(g))
		}
		for _, e := range tg.Edges() {
			combined.AddEdge(e.From, e.To)
		}
		for _, node := range tg.Nodes() {
			combined.AddNode(node)
		}
	}
	if err := combined.Verify(); err != nil {
		return nil, fmt.Errorf("multi-class runtime graph: %w", err)
	}
	m.System.Runtime = combined
	return m, nil
}

// NaiveMultiClassQueues returns the queue count of the isolation-preserving
// composition the paper calls naive: N separate systems of M+1 priorities.
func NaiveMultiClassQueues(numClasses, maxBounces int) int {
	return numClasses * (maxBounces + 1)
}
