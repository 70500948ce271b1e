package trace

// FindCycle returns one cycle of a directed graph given as a dense
// adjacency list — the vertices in edge order, ending at the one the
// search re-entered — or nil when the graph is acyclic. The search is a
// three-colour depth-first walk from the lowest-numbered unvisited vertex,
// following edges in list order, so the answer is deterministic. It is the
// repository's one witness-returning cycle search over a plain adjacency
// list: the simulator's live wait-for scan, the post-mortem's
// reconstruction from a frozen snapshot and core.RepairReplay's same-tag
// port graphs all call it (DESIGN.md §9 lists the searches that stay
// separate, and why).
func FindCycle(adj [][]int) []int {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, len(adj))
	parent := make([]int, len(adj))
	for i := range parent {
		parent[i] = -1
	}
	type frame struct{ node, next int }
	for s := range adj {
		if color[s] != white {
			continue
		}
		stack := []frame{{node: s}}
		color[s] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(adj[f.node]) {
				v := adj[f.node][f.next]
				f.next++
				switch color[v] {
				case white:
					color[v] = gray
					parent[v] = f.node
					stack = append(stack, frame{node: v})
				case gray:
					cyc := []int{v}
					for cur := f.node; cur != v; cur = parent[cur] {
						cyc = append(cyc, cur)
					}
					for i, j := 0, len(cyc)-1; i < j; i, j = i+1, j-1 {
						cyc[i], cyc[j] = cyc[j], cyc[i]
					}
					return cyc
				}
			} else {
				color[f.node] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	return nil
}
