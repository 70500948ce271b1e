package tcam

import (
	"fmt"

	"repro/internal/core"
)

// QueueDecision is where the pipeline put a packet and with what tag.
// Queue 0 is the lossy queue; lossless tag t rides priority queue t.
// It keeps to four fields, which the compiler returns in registers: with
// a fifth it built every decision on the stack, and the simulator's
// packet path (sim_cbd_forensics, 2-vCPU VM) ran ≈13% slower per op.
type QueueDecision struct {
	IngressQueue int // queue index at ingress (by old tag)
	EgressQueue  int // queue index at egress (by new tag) — §7's key fix
	NewTag       int
	// Rule is the ID of the exact entry that decided the rewrite (the
	// table's Cell.Rule), -1 when one of §4's defaults did or the node
	// rewrites nothing.
	Rule int32
}

// Pipeline is the three-step match-action pipeline of §7 (Figure 7) at
// one node:
//
//	step 1: match tag        -> ingress priority queue
//	step 2: match (tag,in,out) -> rewrite tag
//	step 3: match NEW tag    -> egress priority queue
//
// Step 3 must use the rewritten tag: enqueueing the packet by its old
// priority means a downstream PFC PAUSE for the new priority cannot pause
// the queue the packet actually sits in, causing drops (Figure 8). Setting
// LegacyEgressByOldTag simulates that broken default for the ablation
// experiment.
type Pipeline struct {
	table    *Table
	lossless int
	// LegacyEgressByOldTag reproduces the §7 failure mode where the egress
	// queue is selected by the ingress priority.
	LegacyEgressByOldTag bool
}

// NewPipeline returns the pipeline of a node whose ports carry lossless
// queues 1..lossless, with t as its step 2. A nil t rewrites nothing: a
// plain host, or any node of a fabric without Tagger, where a tag rides
// its own queue up to the bound and keeps its value. A table decides the
// tags 1..its ruleset's MaxTag, so with one, lossless must be that
// MaxTag.
func NewPipeline(t *Table, lossless int) Pipeline {
	if t != nil && t.maxTag != lossless {
		panic(fmt.Sprintf("tcam: pipeline with %d lossless queues over a table of tags 1..%d", lossless, t.maxTag))
	}
	return Pipeline{table: t, lossless: lossless}
}

// Process classifies a packet arriving on ingress port in with the given
// tag, destined for egress port out.
func (pl *Pipeline) Process(tag, in, out int) QueueDecision {
	if tag < 1 || tag > pl.lossless {
		// Step 1 puts a tag that is not lossless in the lossy queue, and
		// it stays there: a table demotes it for good.
		d := QueueDecision{NewTag: tag, Rule: -1}
		if pl.table != nil {
			d.NewTag = core.LossyTag
		}
		return d
	}
	d := QueueDecision{IngressQueue: tag, EgressQueue: tag, NewTag: tag, Rule: -1}
	if pl.table != nil {
		c := pl.table.Decide(tag, in, out)
		d.NewTag, d.Rule = int(c.NewTag), c.Rule
		if !pl.LegacyEgressByOldTag || c.NewTag == core.LossyTag {
			// Step 3 by the new tag. The legacy path keeps the old
			// priority, unless the packet was demoted: even it cannot
			// keep a lossy packet lossless.
			d.EgressQueue = pl.queue(d.NewTag)
		}
	}
	return d
}

// queue is steps 1 and 3: lossless tag t rides priority queue t, and
// every other tag the lossy queue 0.
func (pl *Pipeline) queue(tag int) int {
	if tag >= 1 && tag <= pl.lossless {
		return tag
	}
	return 0
}
