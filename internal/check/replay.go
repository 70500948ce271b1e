package check

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/tcam"
)

// ReplayOpts configures ReplayPaths.
type ReplayOpts struct {
	RequireLossless bool // fail if any path goes lossy (ELP yes, deviations no)
	Par             int  // worker count for the compressed image
}

// ReplayPaths pushes every path, stamped with tag 1, hop by hop through
// three implementations — the abstract ruleset replay (core's
// Ruleset.Replay over Classify), the §7 pipeline over the tables compiled
// from the ruleset, and the same pipeline over the tables compiled from
// the compressed TCAM image, each pipeline in both its normal and its §7
// egress-by-old-tag ablation variant — and demands identical (NewTag,
// ingress queue, egress queue) decisions from the two tables and the
// replay's rewrite at every hop, plus the structural invariants any
// §7-correct dataplane must keep:
//
//   - once lossy, always lossy (the safeguard tag cannot be escaped);
//   - non-legacy egress queues follow the NEW tag (the §7 priority-
//     transition rule), legacy egress queues the old one;
//   - lossless tags never decrease along a path.
//
// ELP paths additionally must stay lossless end to end when
// RequireLossless is set; deviation paths exercise the safeguard instead.
func ReplayPaths(rs *core.Ruleset, paths []routing.Path, opts ReplayOpts) error {
	g := rs.Graph()
	exact, _ := tcam.Compile(rs)
	compressed := tcam.NewCompiled(rs, opts.Par).Tables()
	for _, p := range paths {
		ref := rs.Replay(p, 1)
		if opts.RequireLossless && !ref.Lossless {
			return fmt.Errorf("check: path %s goes lossy at hop %d", p.String(g), ref.DropHop)
		}
		for _, legacy := range []bool{false, true} {
			fromRules, fromImage := pipelines(exact, rs.MaxTag(), legacy), pipelines(compressed, rs.MaxTag(), legacy)
			tag := 1
			for i := 1; i+1 < len(p); i++ {
				sw := p[i]
				in := g.PortToPeer(sw, p[i-1])
				out := g.PortToPeer(sw, p[i+1])
				a := fromRules(sw, tag, in, out)
				b := fromImage(sw, tag, in, out)
				if a != b {
					return fmt.Errorf("check: path %s hop %d (legacy=%v): ruleset table %+v vs compressed table %+v",
						p.String(g), i, legacy, a, b)
				}
				// The reference replay recorded the tag on arrival at
				// p[i+1]; the pipelines must rewrite to exactly that.
				if want := ref.Tags[i]; a.NewTag != want {
					return fmt.Errorf("check: path %s hop %d (legacy=%v): pipeline rewrites to %d, replay says %d",
						p.String(g), i, legacy, a.NewTag, want)
				}
				if tag == core.LossyTag && a.NewTag != core.LossyTag {
					return fmt.Errorf("check: path %s hop %d (legacy=%v): lossy packet re-promoted to tag %d",
						p.String(g), i, legacy, a.NewTag)
				}
				if a.NewTag != core.LossyTag && tag != core.LossyTag && a.NewTag < tag {
					return fmt.Errorf("check: path %s hop %d (legacy=%v): tag decreased %d -> %d",
						p.String(g), i, legacy, tag, a.NewTag)
				}
				wantEgress := a.NewTag
				if legacy && rs.IsLossless(tag) && a.NewTag != core.LossyTag {
					wantEgress = tag
				}
				if rs.IsLossless(wantEgress) {
					if a.EgressQueue != wantEgress {
						return fmt.Errorf("check: path %s hop %d (legacy=%v): egress queue %d, want lossless queue %d",
							p.String(g), i, legacy, a.EgressQueue, wantEgress)
					}
				} else if a.EgressQueue != 0 {
					return fmt.Errorf("check: path %s hop %d (legacy=%v): egress queue %d, want the lossy queue 0",
						p.String(g), i, legacy, a.EgressQueue)
				}
				tag = a.NewTag
			}
		}
	}
	return nil
}
