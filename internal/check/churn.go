package check

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/elp"
	"repro/internal/routing"
	"repro/internal/topology"
)

// ChurnCase is one self-contained churn-fuzz input: a topology family
// with its knobs plus a seeded churn sequence (link flaps, drains, pod
// adds) driven through the incremental re-synthesis engine. Like Case,
// everything is plain exported ints so a failing case round-trips
// through the emitted repro test verbatim.
type ChurnCase struct {
	Topo string // "clos" or "jellyfish"
	Seed int64  // drives random wiring and the churn sequence

	// Clos knobs.
	Pods, ToRsPerPod, LeafsPerPod, Spines, HostsPerToR int
	MaxBounces                                         int

	// Jellyfish knobs.
	Switches, Ports, NetPorts int

	Events  int // churn sequence length
	PodAdds int // pod expansions interleaved into the sequence (Clos only)
	Workers int // resynth parallelism (the reference always runs serial)
}

func (c ChurnCase) String() string {
	switch c.Topo {
	case "clos":
		return fmt.Sprintf("churn-clos{pods=%d tors=%d leafs=%d spines=%d hosts=%d k=%d ev=%d podadds=%d par=%d seed=%d}",
			c.Pods, c.ToRsPerPod, c.LeafsPerPod, c.Spines, c.HostsPerToR, c.MaxBounces, c.Events, c.PodAdds, c.Workers, c.Seed)
	case "jellyfish":
		return fmt.Sprintf("churn-jellyfish{sw=%d ports=%d net=%d ev=%d par=%d seed=%d}",
			c.Switches, c.Ports, c.NetPorts, c.Events, c.Workers, c.Seed)
	}
	return fmt.Sprintf("churn-case{topo=%q seed=%d}", c.Topo, c.Seed)
}

// ChurnTopos lists the families the churn fuzzer supports. BCube is out:
// its ELP recipe is server-centric and the churn model (drains, pod
// adds) is switch-fabric shaped.
func ChurnTopos() []string { return []string{"clos", "jellyfish"} }

// GenChurnCase derives a churn case from a seed with every knob bounded
// so a full run — each event pays one from-scratch reference synthesis —
// stays well under a second.
func GenChurnCase(topo string, seed int64) ChurnCase {
	rng := rand.New(rand.NewSource(seed))
	c := ChurnCase{
		Topo:    topo,
		Seed:    seed,
		Events:  6 + rng.Intn(10),
		Workers: 1 + rng.Intn(3),
	}
	switch topo {
	case "clos":
		c.Pods = 2 + rng.Intn(2)
		c.ToRsPerPod = 1 + rng.Intn(2)
		c.LeafsPerPod = 1 + rng.Intn(2)
		c.Spines = 1 + rng.Intn(3)
		c.HostsPerToR = rng.Intn(2)
		c.MaxBounces = 1 + rng.Intn(2)
		c.PodAdds = rng.Intn(2)
	case "jellyfish":
		c.Switches = 4 + rng.Intn(7)
		c.NetPorts = 2 + rng.Intn(2)
		if c.NetPorts >= c.Switches {
			c.NetPorts = c.Switches - 1
		}
		c.Ports = c.NetPorts + 1 + rng.Intn(3)
	}
	return c
}

// validChurnConfig mirrors Case.validConfig for the churn knobs, keeping
// the shrinker from wandering into configurations whose build errors
// would "fail" for the wrong reason.
func (c ChurnCase) validChurnConfig() bool {
	if c.Events < 1 || c.PodAdds < 0 || c.Workers < 1 {
		return false
	}
	switch c.Topo {
	case "clos":
		return c.Pods >= 1 && c.ToRsPerPod >= 1 && c.LeafsPerPod >= 1 &&
			c.Spines >= 1 && c.HostsPerToR >= 0 && c.MaxBounces >= 1 &&
			c.Pods*c.ToRsPerPod >= 2
	case "jellyfish":
		return c.Switches >= 2 && c.Ports >= 2 && c.NetPorts >= 1 &&
			c.NetPorts < c.Switches && c.NetPorts <= c.Ports && c.PodAdds == 0
	}
	return false
}

// buildChurn materializes the topology. The Clos handle is non-nil only
// for the clos family; pod-add events need it to call Expand.
func (c ChurnCase) buildChurn() (*topology.Graph, *topology.Clos, []topology.NodeID, error) {
	switch c.Topo {
	case "clos":
		cl, err := topology.NewClos(topology.ClosConfig{
			Pods: c.Pods, ToRsPerPod: c.ToRsPerPod, LeafsPerPod: c.LeafsPerPod,
			Spines: c.Spines, HostsPerToR: c.HostsPerToR,
		})
		if err != nil {
			return nil, nil, nil, err
		}
		return cl.Graph, cl, cl.ToRs, nil
	case "jellyfish":
		j, err := topology.NewJellyfish(topology.JellyfishConfig{
			Switches: c.Switches, Ports: c.Ports, NetPorts: c.NetPorts,
			Seed: c.Seed, Attempts: 64,
		})
		if err != nil {
			return nil, nil, nil, err
		}
		return j.Graph, nil, j.Switches, nil
	}
	return nil, nil, nil, fmt.Errorf("check: unknown churn topology family %q", c.Topo)
}

// enumerate re-runs the family's ELP policy over the current topology.
// For Clos the endpoint roster is re-read from the handle so pod adds
// pick up the new ToRs; enumeration sees only healthy links, which is
// fine — paths through currently-failed links are already tracked.
func (c ChurnCase) enumerate(g *topology.Graph, cl *topology.Clos, endpoints []topology.NodeID) *elp.Set {
	if c.Topo == "clos" {
		return elp.KBounce(g, cl.ToRs, c.MaxBounces, nil)
	}
	return elp.ShortestAllN(g, endpoints, 1)
}

// RunChurnCase drives one seeded churn sequence through the incremental
// engine and, after every event, holds it to the PR's contract:
//
//  1. the incrementally re-synthesized system is rule-for-rule identical
//     (rules, max tag, conflicts, and all three tagged graphs) to
//     from-scratch synthesis on the same path set;
//  2. the system still passes the independent oracle (Theorem 5.1:
//     per-tag acyclicity + monotone lossless replay of every ELP path).
//
// The reference synthesis is fed st.Paths() — the engine's own tracked
// order — so the comparison also covers the full-rebuild fallback, which
// synthesizes on exactly that list.
func RunChurnCase(c ChurnCase) error {
	g, cl, endpoints, err := c.buildChurn()
	if err != nil {
		return fmt.Errorf("check: building %s: %w", c, err)
	}
	base := c.enumerate(g, cl, endpoints)
	if base.Len() == 0 {
		return fmt.Errorf("check: empty base ELP for %s", c)
	}
	tracker := elp.NewTracker(g, base)
	st, err := core.NewResynth(g, tracker.Active(), core.Options{Workers: c.Workers})
	if err != nil {
		return fmt.Errorf("check: %s: initial synthesis: %w", c, err)
	}

	events := chaos.GenerateChurn(chaos.ChurnConfig{
		Links:    g.SwitchLinks(),
		Switches: g.SwitchNames(),
		Events:   c.Events,
		PodAdds:  c.PodAdds,
	}, c.Seed+3)

	for i, ev := range events {
		var added, removed []routing.Path
		switch ev.Kind {
		case chaos.ChurnLinkDown:
			a, b := g.MustLookup(ev.A), g.MustLookup(ev.B)
			g.FailLink(a, b)
			removed = tracker.LinkDown(a, b)
		case chaos.ChurnLinkUp:
			a, b := g.MustLookup(ev.A), g.MustLookup(ev.B)
			g.RestoreLink(a, b)
			added = tracker.LinkUp(a, b)
		case chaos.ChurnDrain:
			removed = tracker.Drain(g.MustLookup(ev.Switch))
		case chaos.ChurnUndrain:
			added = tracker.Undrain(g.MustLookup(ev.Switch))
		case chaos.ChurnPodAdd:
			if cl == nil {
				continue
			}
			if err := cl.Expand(1); err != nil {
				return fmt.Errorf("check: %s: event %d: %w", c, i, err)
			}
			added = tracker.AddPaths(c.enumerate(g, cl, endpoints).Paths())
		}
		sys, err := st.Apply(added, removed)
		if err != nil {
			return fmt.Errorf("%s: event %d (%s): resynth: %w", c, i, ev, err)
		}
		if err := churnEquiv(g, sys, st.Paths()); err != nil {
			return fmt.Errorf("%s: after event %d (%s): %w", c, i, ev, err)
		}
	}
	return nil
}

// churnEquiv asserts the incremental result is indistinguishable from
// from-scratch synthesis on the same path set and re-verifies it under
// the oracle.
func churnEquiv(g *topology.Graph, got *core.System, paths []routing.Path) error {
	ref, err := core.Synthesize(g, paths, core.Options{Workers: 1})
	if err != nil {
		return fmt.Errorf("reference synthesis: %w", err)
	}
	if diffs := DiffRulesets(ref.Rules, got.Rules); len(diffs) > 0 {
		return fmt.Errorf("incremental vs from-scratch rules diverge (%d diffs; first: %s)",
			len(diffs), diffs[0])
	}
	if a, b := ref.Rules.MaxTag(), got.Rules.MaxTag(); a != b {
		return fmt.Errorf("incremental vs from-scratch max tag: %d vs %d", b, a)
	}
	if !reflect.DeepEqual(ref.Conflicts, got.Conflicts) {
		return fmt.Errorf("incremental vs from-scratch conflicts diverge: %v vs %v",
			got.Conflicts, ref.Conflicts)
	}
	graphs := []struct {
		name string
		a, b *core.TaggedGraph
	}{
		{"brute-force", ref.BruteForce, got.BruteForce},
		{"merged", ref.Merged, got.Merged},
		{"runtime", ref.Runtime, got.Runtime},
	}
	for _, gp := range graphs {
		if (gp.a == nil) != (gp.b == nil) {
			return fmt.Errorf("%s graph present on one side only", gp.name)
		}
		if gp.a == nil {
			continue
		}
		if !reflect.DeepEqual(gp.a.Nodes(), gp.b.Nodes()) || !reflect.DeepEqual(gp.a.Edges(), gp.b.Edges()) {
			return fmt.Errorf("incremental vs from-scratch %s graphs diverge", gp.name)
		}
	}
	if err := VerifySystem(got); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	return nil
}

// ShrinkChurn minimizes a failing churn case by greedy per-knob descent,
// exactly like Shrink: the event count shrinks first (shorter sequences
// are prefixes of longer ones under a fixed seed, so this trims events
// off the tail), then the topology knobs.
func ShrinkChurn(c ChurnCase, fails func(ChurnCase) bool) ChurnCase {
	type knob struct {
		get func(*ChurnCase) *int
		min int
	}
	knobs := map[string][]knob{
		"clos": {
			{func(c *ChurnCase) *int { return &c.Pods }, 1},
			{func(c *ChurnCase) *int { return &c.ToRsPerPod }, 1},
			{func(c *ChurnCase) *int { return &c.LeafsPerPod }, 1},
			{func(c *ChurnCase) *int { return &c.Spines }, 1},
			{func(c *ChurnCase) *int { return &c.HostsPerToR }, 0},
			{func(c *ChurnCase) *int { return &c.MaxBounces }, 1},
		},
		"jellyfish": {
			{func(c *ChurnCase) *int { return &c.Switches }, 3},
			{func(c *ChurnCase) *int { return &c.Ports }, 3},
			{func(c *ChurnCase) *int { return &c.NetPorts }, 2},
		},
	}
	common := []knob{
		{func(c *ChurnCase) *int { return &c.Events }, 1},
		{func(c *ChurnCase) *int { return &c.PodAdds }, 0},
		{func(c *ChurnCase) *int { return &c.Workers }, 1},
	}
	all := append(append([]knob{}, common...), knobs[c.Topo]...)

	for changed := true; changed; {
		changed = false
		for _, k := range all {
			for {
				cur := *k.get(&c)
				if cur <= k.min {
					break
				}
				cand := c
				*k.get(&cand) = k.min
				if !cand.validChurnConfig() || !fails(cand) {
					cand = c
					*k.get(&cand) = cur - 1
					if !cand.validChurnConfig() || !fails(cand) {
						break
					}
				}
				c = cand
				changed = true
			}
		}
	}
	return c
}

// ChurnReproName returns the deterministic identifier a churn case's
// repro test and corpus file use.
func ChurnReproName(c ChurnCase) string {
	return fmt.Sprintf("churn_%s_seed%d", c.Topo, c.Seed)
}

// ChurnReproSource renders a shrunk failing churn case as a runnable Go
// test, mirroring ReproSource.
func ChurnReproSource(c ChurnCase, failure error) string {
	name := ChurnReproName(c)
	var b []byte
	app := func(format string, args ...any) { b = fmt.Appendf(b, format, args...) }
	app("// Code generated by taggerfuzz; minimal shrunk repro. DO NOT EDIT.\n")
	app("//\n// Original failure:\n")
	for _, line := range strings.Split(failure.Error(), "\n") {
		app("//\t%s\n", line)
	}
	app("package check_test\n\n")
	app("import (\n\t\"testing\"\n\n\t\"repro/internal/check\"\n)\n\n")
	app("func TestRepro_%s(t *testing.T) {\n", name)
	app("\tc := check.ChurnCase{\n")
	app("\t\tTopo: %q,\n\t\tSeed: %d,\n", c.Topo, c.Seed)
	switch c.Topo {
	case "clos":
		app("\t\tPods: %d, ToRsPerPod: %d, LeafsPerPod: %d, Spines: %d, HostsPerToR: %d,\n",
			c.Pods, c.ToRsPerPod, c.LeafsPerPod, c.Spines, c.HostsPerToR)
		app("\t\tMaxBounces: %d,\n", c.MaxBounces)
	case "jellyfish":
		app("\t\tSwitches: %d, Ports: %d, NetPorts: %d,\n", c.Switches, c.Ports, c.NetPorts)
	}
	app("\t\tEvents: %d, PodAdds: %d, Workers: %d,\n", c.Events, c.PodAdds, c.Workers)
	app("\t}\n")
	app("\tif err := check.RunChurnCase(c); err != nil {\n")
	app("\t\tt.Fatalf(\"repro still failing: %%v\", err)\n")
	app("\t}\n}\n")
	return string(b)
}
