package tagger_test

import (
	"fmt"

	tagger "repro"
)

// The complete operator workflow: topology, ELP, synthesis, verification.
func ExampleSynthesizeClos() {
	clos, _ := tagger.NewClos(tagger.ClosConfig{
		Pods: 2, ToRsPerPod: 2, LeafsPerPod: 2, Spines: 2, HostsPerToR: 4,
	})
	elp := tagger.KBounceELP(clos, 1) // lossless through one reroute bounce
	sys, _ := tagger.SynthesizeClos(clos, elp, 1)
	fmt.Println("queues:", sys.NumLosslessQueues())
	fmt.Println("verified:", sys.Runtime.Verify() == nil)
	// Output:
	// queues: 2
	// verified: true
}

// Generic synthesis (Algorithms 1+2) on an unstructured topology.
func ExampleSynthesize() {
	j, _ := tagger.NewJellyfish(tagger.JellyfishConfig{Switches: 30, Ports: 8, Seed: 7})
	sys, _ := tagger.Synthesize(j.Graph, tagger.ShortestELP(j.Graph, j.Switches))
	fmt.Println("priorities needed:", sys.Runtime.NumSwitchTags() <= 3)
	// Output:
	// priorities needed: true
}

// A packet's tag journey along a 1-bounce reroute: the bounce moves it
// from tag 1 to tag 2; it stays lossless because the ELP covers one
// bounce.
func ExampleRuleset_Replay() {
	clos, _ := tagger.NewClos(tagger.ClosConfig{
		Pods: 2, ToRsPerPod: 2, LeafsPerPod: 2, Spines: 2, HostsPerToR: 1,
	})
	sys, _ := tagger.SynthesizeClos(clos, tagger.KBounceELP(clos, 1), 1)
	g := clos.Graph
	bounced := tagger.Path{
		g.MustLookup("T3"), g.MustLookup("L3"), g.MustLookup("S2"),
		g.MustLookup("L1"), g.MustLookup("S1"), g.MustLookup("L2"), g.MustLookup("T1"),
	}
	res := sys.Rules.Replay(bounced, 1)
	fmt.Println("tags:", res.Tags, "lossless:", res.Lossless)
	// Output:
	// tags: [1 1 1 2 2 2] lossless: true
}

// The provable lower bound of §4.4.
func ExampleMinLosslessQueues() {
	for k := 0; k <= 2; k++ {
		fmt.Printf("k=%d bounces -> >= %d lossless queues\n", k, tagger.MinLosslessQueues(k))
	}
	// Output:
	// k=0 bounces -> >= 1 lossless queues
	// k=1 bounces -> >= 2 lossless queues
	// k=2 bounces -> >= 3 lossless queues
}

// The deployment bundle the controller pushes to the switches.
func ExampleFabricController_Bundle() {
	clos, _ := tagger.NewClos(tagger.ClosConfig{
		Pods: 2, ToRsPerPod: 2, LeafsPerPod: 2, Spines: 2, HostsPerToR: 1,
	})
	ctl, _ := tagger.NewClosController(clos, 1)
	b := ctl.Bundle()
	fmt.Println("switches with rules:", len(b.Switches), "max lossless tag:", b.MaxTag)
	// Output:
	// switches with rules: 10 max lossless tag: 2
}
