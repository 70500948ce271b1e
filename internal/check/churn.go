package check

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/elp"
	"repro/internal/routing"
)

// RunChurnCase drives one seeded churn sequence through the incremental
// engine and, after every event, holds it to the engine's contract:
//
//  1. the incrementally re-synthesized system is rule-for-rule identical
//     (rules, max tag, conflicts, path set and all three tagged graphs)
//     to from-scratch synthesis on the same path set;
//  2. the system still passes the independent oracle (Theorem 5.1:
//     per-tag acyclicity + monotone lossless replay of every ELP path);
//  3. the engine's path set, the tracker's active set and the paths ever
//     offered to the tracker that are usable right now are one set — the
//     first two alone would pass a path the tracker never revives.
//
// The reference synthesis is fed st.Paths() — the engine's own tracked
// order — so the comparison also covers the full-rebuild fallback, which
// synthesizes on exactly that list.
func RunChurnCase(c Case) error {
	f, err := c.build()
	if err != nil {
		return fmt.Errorf("check: building %s: %w", c, err)
	}
	g := f.g
	base := c.elp(f)
	if base.Len() == 0 {
		return fmt.Errorf("check: empty base ELP for %s", c)
	}
	tracker := elp.NewTracker(g, base)
	var offered routing.PathIndex
	for _, p := range base.Paths() {
		offered.Add(p)
	}
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
			if f.clos == nil {
				continue
			}
			if err := f.clos.Expand(1); err != nil {
				return fmt.Errorf("check: %s: event %d: %w", c, i, err)
			}
			fresh := c.elp(f).Paths()
			for _, p := range fresh {
				offered.Add(p)
			}
			added = tracker.AddPaths(fresh)
		}
		sys, err := st.Apply(added, removed)
		if err != nil {
			return fmt.Errorf("%s: event %d (%s): resynth: %w", c, i, ev, err)
		}
		ref, err := core.Synthesize(g, st.Paths(), core.Options{Workers: 1})
		if err != nil {
			return fmt.Errorf("%s: event %d (%s): reference synthesis: %w", c, i, ev, err)
		}
		if err := sameSystem(sys, ref); err != nil {
			return fmt.Errorf("%s: after event %d (%s): incremental vs from-scratch: %w", c, i, ev, err)
		}
		if err := churnSets(st.Paths(), tracker, offered.Paths()); err != nil {
			return fmt.Errorf("%s: after event %d (%s): %w", c, i, ev, err)
		}
	}
	return nil
}

// churnSets asserts that the engine's paths, the tracker's active paths
// and the offered paths the tracker calls usable are the same set.
func churnSets(engine []routing.Path, tracker *elp.Tracker, offered []routing.Path) error {
	var have routing.PathIndex
	for _, p := range engine {
		have.Add(p)
	}
	sets := []struct {
		name  string
		paths []routing.Path
	}{{"tracker active", tracker.Active()}, {"usable offered", nil}}
	for _, p := range offered {
		if tracker.Usable(p) {
			sets[1].paths = append(sets[1].paths, p)
		}
	}
	for _, s := range sets {
		if len(s.paths) != have.Len() {
			return fmt.Errorf("%d %s paths, engine tracks %d", len(s.paths), s.name, have.Len())
		}
		for _, p := range s.paths {
			if _, ok := have.Find(p); !ok {
				return fmt.Errorf("%s path %v is not in the engine's set", s.name, p)
			}
		}
	}
	return nil
}
