package tcam

import "repro/internal/core"

// QueueKind distinguishes lossless priority queues from the lossy queue.
type QueueKind uint8

// Queue kinds.
const (
	Lossless QueueKind = iota
	Lossy
)

// QueueDecision is where the pipeline put a packet and with what tag.
type QueueDecision struct {
	IngressQueue int // queue index at ingress (by old tag)
	EgressQueue  int // queue index at egress (by new tag) — §7's key fix
	NewTag       int
	Kind         QueueKind
}

// Pipeline is the three-step match-action pipeline of §7 (Figure 7) at
// one switch:
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
	// Table is the switch's compiled step 2 (Compile, CompileEntries).
	Table *Table
	// LegacyEgressByOldTag reproduces the §7 failure mode where the egress
	// queue is selected by the ingress priority.
	LegacyEgressByOldTag bool
}

// Process classifies a packet arriving on ingress port in with the given
// tag, destined for egress port out.
func (pl *Pipeline) Process(tag, in, out int) QueueDecision {
	var d QueueDecision
	var inKind QueueKind
	d.IngressQueue, inKind = pl.Table.Queue(tag)
	d.NewTag = int(pl.Table.Decide(tag, in, out).NewTag)
	d.EgressQueue, d.Kind = pl.Table.Queue(d.NewTag)
	if pl.LegacyEgressByOldTag && d.NewTag != core.LossyTag {
		// The old priority, unless the packet was demoted: even the
		// legacy path cannot keep a lossy packet lossless.
		d.EgressQueue, d.Kind = d.IngressQueue, inKind
	}
	return d
}

// LosslessQueues returns how many lossless queues the pipeline needs.
func (pl *Pipeline) LosslessQueues() int { return pl.Table.maxTag }
