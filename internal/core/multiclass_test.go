package core

import (
	"testing"

	"repro/internal/elp"
	"repro/internal/paper"
	"repro/internal/routing"
)

func TestMultiClassClosSharesTags(t *testing.T) {
	c := paper.Testbed()
	g := c.Graph
	const M = 1 // bounces tolerated by class 0
	const N = 2 // application classes

	full := elp.KBounce(g, c.ToRs, M, nil)
	// Class 1 starts one tag higher and so tolerates M+N-2 = 0 bounces
	// within the shared range: give it the up-down-only ELP.
	ud := elp.UpDownAll(g, c.ToRs)

	base, err := ClosSynthesize(g, full.Paths(), M)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := MultiClassClos(base, [][]routing.Path{full.Paths(), ud.Paths()}, M)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mc.NumLosslessQueues(), M+N; got != want {
		t.Errorf("shared queues = %d, want %d", got, want)
	}
	if naive := NaiveMultiClassQueues(N, M); naive != N*(M+1) || mc.NumLosslessQueues() >= naive+1 {
		t.Errorf("shared %d should not exceed naive %d", mc.NumLosslessQueues(), naive)
	}
	if mc.StartTag(0) != 1 || mc.StartTag(1) != 2 {
		t.Errorf("start tags = %d,%d", mc.StartTag(0), mc.StartTag(1))
	}
	if mc.NumLosslessQueues()-mc.StartTag(0) != M+N-1 || mc.NumLosslessQueues()-mc.StartTag(1) != M+N-2 {
		t.Errorf("bounce budgets = %d,%d", mc.NumLosslessQueues()-mc.StartTag(0), mc.NumLosslessQueues()-mc.StartTag(1))
	}
	if err := mc.System.Runtime.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestMultiClassClassOverBudgetFails(t *testing.T) {
	c := paper.Testbed()
	g := c.Graph
	full := elp.KBounce(g, c.ToRs, 1, nil)
	// Class 1 (start tag 2) asked to carry 1-bounce paths in a tag space
	// of 1+2=3 would succeed (a bounce lands on tag 3, still lossless);
	// shrink the space with M=0 to force failure.
	base0, err := ClosSynthesize(g, elp.UpDownAll(g, c.ToRs).Paths(), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = MultiClassClos(base0, [][]routing.Path{full.Paths(), full.Paths()}, 0)
	if err == nil {
		t.Fatal("expected over-budget class to fail verification")
	}
}

func TestMultiClassNoClasses(t *testing.T) {
	c := paper.Testbed()
	base, err := ClosSynthesize(c.Graph, elp.UpDownAll(c.Graph, c.ToRs).Paths(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MultiClassClos(base, nil, 0); err == nil {
		t.Fatal("expected error for zero classes")
	}
}

func TestMultiClassReplayIsolation(t *testing.T) {
	// A class-1 packet (stamp 2) on an up-down path keeps tag 2 end to
	// end and never collides with class 0's tag-1 traffic until either
	// bounces.
	c := paper.Testbed()
	g := c.Graph
	rules := ClosRules(g, 1, 2) // tags 1..3 shared
	ud := elp.UpDownAll(g, c.ToRs)
	for _, p := range ud.Paths()[:8] {
		res := rules.Replay(p, 2)
		if !res.Lossless {
			t.Fatalf("class-1 path %s lossy", p.String(g))
		}
		for _, tag := range res.Tags {
			if tag != 2 {
				t.Fatalf("class-1 up-down path changed tag: %v", res.Tags)
			}
		}
	}
	// A class-0 1-bounce packet ends at tag 2, sharing class 1's queue —
	// the reduced isolation the paper accepts.
	green := paper.Fig3GreenPath(c)
	res := rules.Replay(green, 1)
	if !res.Lossless || res.Tags[len(res.Tags)-1] != 2 {
		t.Fatalf("class-0 bounce tags = %v", res.Tags)
	}
}
