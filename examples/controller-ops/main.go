// controller-ops demonstrates the §6 operational story: a controller
// deploys verified Tagger rules once; link failures need zero rule
// changes (the rules are static by design), and expanding the fabric by a
// pod produces a small incremental bundle that never touches old
// non-spine switches. It then replays the expansion against an
// unreliable switch fabric to show the fault-tolerant deployment
// pipeline: transient install failures are retried with backoff, a
// partial install is caught by readback verification, and an activation
// failure rolls every already-flipped switch back to the previous
// verified bundle — the fabric never runs a half-installed rule set.
package main

import (
	"fmt"
	"log"
	"sort"

	tagger "repro"
)

func main() {
	clos := tagger.PaperTestbed()
	ctl, err := tagger.NewClosController(clos, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial deployment: %d lossless queues, %d switches with rules\n",
		ctl.System().NumLosslessQueues(), len(ctl.Bundle().Switches))

	// A day in production: links flap.
	g := clos.Graph
	events := []tagger.ControllerEvent{
		{Kind: tagger.EventLinkDown, A: g.MustLookup("L1"), B: g.MustLookup("T1")},
		{Kind: tagger.EventLinkDown, A: g.MustLookup("L3"), B: g.MustLookup("T4")},
		{Kind: tagger.EventLinkUp, A: g.MustLookup("L1"), B: g.MustLookup("T1")},
	}
	for _, ev := range events {
		if err := ctl.Handle(ev); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("after %d failure events: %d rule updates pushed (Tagger rules are static)\n",
		ctl.FailureCount(), len(ctl.Diffs()))

	// Capacity expansion: one more pod under the existing spines.
	if err := clos.Expand(1); err != nil {
		log.Fatal(err)
	}
	if err := ctl.Handle(tagger.ControllerEvent{Kind: tagger.EventExpansion}); err != nil {
		log.Fatal(err)
	}
	diffs := ctl.Diffs()
	diff := diffs[len(diffs)-1]
	fmt.Printf("after adding a pod: incremental update touches %d switches:\n", len(diff))
	touched := make([]string, 0, len(diff))
	for name := range diff {
		touched = append(touched, name)
	}
	sort.Strings(touched)
	for _, name := range touched {
		d := diff[name]
		fmt.Printf("  %-4s +%d rules -%d rules\n", name, len(d.Added), len(d.Removed))
	}
	fmt.Printf("still %d lossless queues; deployment re-verified deadlock-free\n",
		ctl.System().NumLosslessQueues())

	// The bundle is plain JSON an operator can diff and version.
	data, err := ctl.Bundle().Marshal()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployment bundle: %d bytes of JSON\n", len(data))

	// ---- Part 2: the same deployment against unreliable switch agents.
	fmt.Println("\n== deploying through an unreliable fabric ==")
	clos2 := tagger.PaperTestbed()
	var names []string
	for _, sw := range clos2.Graph.Switches() {
		names = append(names, clos2.Graph.Node(sw).Name)
	}
	fab := tagger.NewChaosFabric(names)
	// T1 refuses its first two installs; L2 silently drops 60% of the
	// first bundle it is sent while reporting success.
	fab.Inject("T1", tagger.ChaosFault{Kind: tagger.ChaosFaultInstallTransient, Count: 2})
	fab.Inject("L2", tagger.ChaosFault{Kind: tagger.ChaosFaultInstallPartial, Frac: 0.4})

	ctl2, err := tagger.NewClosController(clos2, 1,
		tagger.WithSwitchAgent(fab), tagger.WithDeployConfig(tagger.DefaultDeployConfig()))
	if err != nil {
		log.Fatal(err)
	}
	cnt := ctl2.Counters()
	fmt.Printf("deployed despite faults: %d install failures retried, %d partial installs caught by readback\n",
		cnt["deploy.install.fail"], cnt["deploy.partial_detected"])
	if n := len(tagger.DiffBundles(fab.ActiveBundle(ctl2.Bundle().MaxTag), ctl2.Bundle())); n != 0 {
		log.Fatalf("fabric diverges from verified bundle on %d switches", n)
	}
	fmt.Println("fabric active state verified identical to the controller's bundle")

	// Now an expansion where one spine accepts the new rules but can
	// never activate them: the push must fail atomically.
	if err := clos2.Expand(1); err != nil {
		log.Fatal(err)
	}
	for _, sw := range clos2.Graph.Switches() {
		fab.Add(clos2.Graph.Node(sw).Name) // rack the new pod's agents
	}
	prev := ctl2.Bundle()
	fab.Inject("S2",
		tagger.ChaosFault{Kind: tagger.ChaosFaultPass}, // install lands
		tagger.ChaosFault{Kind: tagger.ChaosFaultPass}, // readback verifies
		tagger.ChaosFault{Kind: tagger.ChaosFaultInstallPersistent, Count: 1 << 20})
	err = ctl2.Handle(tagger.ControllerEvent{Kind: tagger.EventExpansion})
	fmt.Printf("expansion push failed as expected: %v\n", err)
	if err == nil {
		log.Fatal("expansion through a wedged spine should have failed")
	}
	if ctl2.Bundle() != prev {
		log.Fatal("controller advanced past a failed push")
	}
	if n := len(tagger.DiffBundles(fab.ActiveBundle(prev.MaxTag), prev)); n != 0 {
		log.Fatalf("fabric left half-installed on %d switches after rollback", n)
	}
	cnt = ctl2.Counters()
	fmt.Printf("rolled back cleanly: rollbacks=%d, fabric still runs the previous verified bundle\n",
		cnt["deploy.rollbacks"])

	fmt.Println("\naudit tail:")
	audit := ctl2.Audit()
	for _, e := range audit[len(audit)-5:] {
		fmt.Println("  " + e.String())
	}
}
