package core

import (
	"fmt"
	"strings"
)

// VerifyError describes a violated deadlock-freedom requirement, with a
// witness cycle or edge.
type VerifyError struct {
	Requirement int    // 1 = per-tag acyclicity, 2 = monotonicity
	Detail      string // human-readable witness
	// Cycle is requirement 1's witness in edge order (the last vertex's
	// edge back to the first closes it): a cyclic buffer dependency.
	Cycle []TagNode
}

// Error implements the error interface.
func (e *VerifyError) Error() string {
	return fmt.Sprintf("tagger verify: requirement %d violated: %s", e.Requirement, e.Detail)
}

// Verify checks the two requirements of §5.1 that together guarantee
// deadlock freedom (Theorem 5.1):
//
//  1. for every tag k, the per-tag port graph G_k is acyclic — an edge in
//     G_k is a buffer dependency within one lossless priority, and a cycle
//     there is a CBD;
//  2. tags never decrease along any edge — otherwise a CBD could form
//     across priorities.
//
// It returns nil iff the tagging system is deadlock-free, or a
// *VerifyError with a concrete witness.
func (tg *TaggedGraph) Verify() error {
	if err := tg.verifyMonotonic(); err != nil {
		return err
	}
	return tg.verifyPerTagAcyclic()
}

func (tg *TaggedGraph) verifyMonotonic() error {
	for id := range tg.nodes {
		from := tg.nodes[id]
		for i := tg.succHead[id]; i != 0; i = tg.succPool[i-1].next {
			to := tg.nodes[tg.succPool[i-1].node]
			if to.Tag < from.Tag {
				return &VerifyError{
					Requirement: 2,
					Detail: fmt.Sprintf("edge %s -> %s decreases the tag",
						tg.NodeString(from), tg.NodeString(to)),
				}
			}
		}
	}
	return nil
}

func (tg *TaggedGraph) verifyPerTagAcyclic() error {
	// Within one tag k a port appears in at most one vertex, so the
	// subgraph of same-tag edges over dense vertex IDs is exactly the
	// disjoint union of the per-tag port graphs G_k — one iterative
	// three-color DFS that only follows same-tag successors checks every
	// G_k in a single allocation-lean pass.
	n := len(tg.nodes)
	color := make([]int8, n)
	parent := make([]int32, n)
	type frame struct{ id, it int32 }
	var stack []frame
	for start := 0; start < n; start++ {
		if color[start] != 0 {
			continue
		}
		color[start] = 1
		stack = append(stack[:0], frame{int32(start), tg.succHead[start]})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.it == 0 {
				color[f.id] = 2
				stack = stack[:len(stack)-1]
				continue
			}
			e := tg.succPool[f.it-1]
			f.it = e.next
			v := e.node
			if tg.nodes[v].Tag != tg.nodes[f.id].Tag {
				continue
			}
			switch color[v] {
			case 0:
				color[v] = 1
				parent[v] = f.id
				stack = append(stack, frame{v, tg.succHead[v]})
			case 1:
				// Found a back edge f.id -> v: unwind the cycle and
				// reverse it to follow edge direction.
				cyc := []int32{v}
				for cur := f.id; cur != v; cur = parent[cur] {
					cyc = append(cyc, cur)
				}
				for i, j := 0, len(cyc)-1; i < j; i, j = i+1, j-1 {
					cyc[i], cyc[j] = cyc[j], cyc[i]
				}
				var names []string
				witness := make([]TagNode, len(cyc))
				for i, id := range cyc {
					witness[i] = tg.nodes[id]
					port := tg.g.Port(witness[i].Port)
					names = append(names, fmt.Sprintf("%s_%d", tg.g.Node(port.Node).Name, port.Num))
				}
				return &VerifyError{
					Requirement: 1,
					Detail: fmt.Sprintf("G_%d contains cycle %s",
						tg.nodes[v].Tag, strings.Join(names, " -> ")),
					Cycle: witness,
				}
			}
		}
	}
	return nil
}
