package main

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/check"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/elp"
	"repro/internal/routing"
	"repro/internal/topology"
)

// churnEvents is the length of the generated sequence. At the measured
// ≈30 ms an event it outlasts the longest run the flags allow; a run that
// does reach the end stops there.
const churnEvents = 8192

// maxDownLinks and maxDrained cap how much of the fabric is out at once.
// An event's cost grows with the outage already piled up, and the
// generator's defaults (a quarter of the fabric) let that random walk
// wander far enough that two seeds' medians differ by a third. Held near
// healthy, as an operated fabric is, the seeds agree.
const (
	maxDownLinks = 4
	maxDrained   = 2
)

// churn is churn_clos4x8: a churn controller over a Clos fabric handles
// successive events of one long seeded sequence (link down/up, switch
// drain/undrain). Every reconcileEvery-th event a spine's agent state is
// wiped and Reconcile repairs it, timed apart from the events.
type churn struct {
	sz     sizes
	cl     *topology.Clos
	events []chaos.ChurnEvent
	fab    *chaos.Fabric
	ctl    *controller.Controller
	next   int // index of the next event to handle

	// Exact counts over the first churnPrefix timed events, which begin
	// at index timedFrom (gate sets it: the warm-up events precede it).
	timedFrom  int
	deltaBase  int // DeltaLog entries that precede the timed events
	maxQueues  int
	reconciles int
	fixed      int

	// shadow is a second identical fabric on which the traced run
	// replays each event through the tracker and the incremental
	// synthesizer directly, to attribute HandleChurn's time.
	shadow *shadowChurn
}

type shadowChurn struct {
	g       *topology.Graph
	tracker *elp.Tracker
	resynth *core.Resynth
	next    int
	events  int
	paths   int // paths handed to Apply over the counted prefix
}

func churnPolicy(cl *topology.Clos) controller.ELPPolicy {
	return controller.KBouncePolicy(func() []topology.NodeID { return cl.ToRs }, 1)
}

// switchLinks lists the switch-to-switch links by endpoint names: the
// candidates for link churn.
func switchLinks(g *topology.Graph) [][2]string {
	var out [][2]string
	for i := 0; i < g.NumLinks(); i++ {
		l := g.Link(topology.LinkID(i))
		if g.Node(l.A).Kind.IsSwitch() && g.Node(l.B).Kind.IsSwitch() {
			out = append(out, [2]string{g.Node(l.A).Name, g.Node(l.B).Name})
		}
	}
	return out
}

func setupChurn(seed int64, sz sizes, rec *recorder) (instance, error) {
	w := &churn{sz: sz, timedFrom: -1}
	var err error
	rec.span("topology.build", func() { w.cl, err = topology.NewClos(sz.churn) })
	if err != nil {
		return nil, fmt.Errorf("building clos: %w", err)
	}
	g := w.cl.Graph
	names := switchNames(g)
	rec.span("chaos.gen_churn", func() {
		w.events = chaos.GenerateChurn(chaos.ChurnConfig{
			Links: switchLinks(g), Switches: names, Events: churnEvents,
			MaxDownLinks: maxDownLinks, MaxDrained: maxDrained,
		}, seed)
	})
	w.fab = chaos.NewFabric(names)
	rec.span("controller.start", func() {
		w.ctl, err = controller.NewChurn(g, churnPolicy(w.cl), controller.WithAgent(w.fab))
	})
	if err != nil {
		return nil, fmt.Errorf("initial churn deploy: %w", err)
	}
	if rec != nil {
		cl2, err := topology.NewClos(sz.churn)
		if err != nil {
			return nil, err
		}
		set := churnPolicy(cl2)(cl2.Graph)
		rs, err := core.NewResynth(cl2.Graph, set.Paths(), core.Options{})
		if err != nil {
			return nil, fmt.Errorf("shadow synthesis: %w", err)
		}
		w.shadow = &shadowChurn{g: cl2.Graph, tracker: elp.NewTracker(cl2.Graph, set), resynth: rs}
	}
	return w, nil
}

// controllerEvent resolves a generated event's names on g.
func controllerEvent(g *topology.Graph, ev chaos.ChurnEvent) (controller.Event, error) {
	switch ev.Kind {
	case chaos.ChurnLinkDown:
		return controller.Event{Kind: controller.EventLinkDown, A: g.MustLookup(ev.A), B: g.MustLookup(ev.B)}, nil
	case chaos.ChurnLinkUp:
		return controller.Event{Kind: controller.EventLinkUp, A: g.MustLookup(ev.A), B: g.MustLookup(ev.B)}, nil
	case chaos.ChurnDrain:
		return controller.Event{Kind: controller.EventSwitchDrain, A: g.MustLookup(ev.Switch)}, nil
	case chaos.ChurnUndrain:
		return controller.Event{Kind: controller.EventSwitchUndrain, A: g.MustLookup(ev.Switch)}, nil
	}
	return controller.Event{}, fmt.Errorf("churn sequence holds unsupported event %s", ev)
}

func (w *churn) op(rec *recorder) error {
	if w.next >= len(w.events) {
		return fmt.Errorf("churn sequence exhausted after %d events", w.next)
	}
	ev, err := controllerEvent(w.cl.Graph, w.events[w.next])
	if err != nil {
		return err
	}
	w.next++
	rec.span("controller.handle", func() { err = w.ctl.HandleChurn(ev) })
	if err != nil {
		return err
	}
	if w.inPrefix() {
		if q := w.ctl.System().NumLosslessQueues(); q > w.maxQueues {
			w.maxQueues = q
		}
	}
	return nil
}

// inPrefix reports whether the event just handled is one of the first
// churnPrefix timed ones.
func (w *churn) inPrefix() bool {
	return w.timedFrom >= 0 && w.next-w.timedFrom <= w.sz.churnPrefix
}

// afterOp runs between timed events: the periodic reboot and reconcile.
// It is its own root span and contributes no op latency sample.
func (w *churn) afterOp(rec *recorder) error {
	if w.next%w.sz.reconcileEvery != 0 {
		return nil
	}
	return rec.op("reconcile", func() error {
		w.fab.Reboot(w.cl.Graph.Node(w.cl.Spines[0]).Name)
		var fixed int
		var err error
		rec.span("controller.reconcile", func() { fixed, err = w.ctl.Reconcile() })
		if err != nil {
			return err
		}
		if w.inPrefix() {
			w.reconciles++
			w.fixed += fixed
		}
		return nil
	})
}

func (w *churn) minOps() int { return w.sz.churnPrefix }

// gate checks the freshly deployed fabric; the end-of-run state is
// checked by finish. It also marks where the timed events begin in the
// controller's delta log (the warm-up events precede it).
func (w *churn) gate(rec *recorder, m metricSet) error {
	var err error
	rec.span("check.oracle", func() { err = check.VerifySystem(w.ctl.System()) })
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if err := w.converged(); err != nil {
		return err
	}
	sys := w.ctl.System()
	if err := checkFrames(w.cl.Graph, sys.Rules, sys.ELP, int64(w.next), w.sz.frameSamples, m); err != nil {
		return err
	}
	w.timedFrom, w.deltaBase = w.next, len(w.ctl.DeltaLog())
	return systemCounts(m, sys, w.ctl.Bundle(), switchNames(w.cl.Graph))
}

// converged requires the fleet's active rules to equal the controller's
// bundle.
func (w *churn) converged() error {
	b := w.ctl.Bundle()
	if d := deploy.Diff(w.fab.ActiveBundle(b.MaxTag), b); len(d) != 0 {
		return fmt.Errorf("fleet diverges from the controller's bundle on %d switches", len(d))
	}
	return nil
}

// staged replays, on the shadow fabric, every event the controller has
// handled since the last call: the tracker's ELP delta, then the
// incremental re-synthesis, then the export that follows it inside
// HandleChurn.
func (w *churn) staged(rec *recorder) error {
	s := w.shadow
	for ; s.next < w.next; s.next++ {
		ev, err := controllerEvent(s.g, w.events[s.next])
		if err != nil {
			return err
		}
		var added, removed []routing.Path
		rec.span("elp.tracker", func() {
			switch ev.Kind {
			case controller.EventLinkDown:
				s.g.FailLink(ev.A, ev.B)
				removed = s.tracker.LinkDown(ev.A, ev.B)
			case controller.EventLinkUp:
				s.g.RestoreLink(ev.A, ev.B)
				added = s.tracker.LinkUp(ev.A, ev.B)
			case controller.EventSwitchDrain:
				removed = s.tracker.Drain(ev.A)
			case controller.EventSwitchUndrain:
				added = s.tracker.Undrain(ev.A)
			}
		})
		var sys *core.System
		rec.span("core.resynth_apply", func() { sys, err = s.resynth.Apply(added, removed) })
		if err != nil {
			return fmt.Errorf("shadow re-synthesis at event %d: %w", s.next, err)
		}
		rec.span("deploy.export", func() { deploy.Export(sys.Rules) })
		if s.events < w.sz.churnPrefix {
			s.events++
			s.paths += len(added) + len(removed)
		}
	}
	return nil
}

func (w *churn) finish(m metricSet) error {
	if _, err := w.ctl.Reconcile(); err != nil {
		return fmt.Errorf("final reconcile: %w", err)
	}
	if err := w.converged(); err != nil {
		return err
	}
	if err := check.VerifySystem(w.ctl.System()); err != nil {
		return fmt.Errorf("oracle after churn: %w", err)
	}
	log := w.ctl.DeltaLog()
	counted := min(w.next-w.timedFrom, w.sz.churnPrefix)
	if to := w.deltaBase + counted; counted > 0 && to <= len(log) {
		var moved, touched int
		for _, d := range log[w.deltaBase:to] {
			moved += d.RulesAdded + d.RulesRemoved + d.RulesModified
			touched += d.SwitchesChanged
		}
		m["deploy.rules_moved_per_event"] = float64(moved) / float64(counted)
		m["deploy.switches_touched_per_event"] = float64(touched) / float64(counted)
	}
	m["core.lossless_queues"] = float64(w.maxQueues)
	if w.reconciles > 0 {
		m["controller.reconcile_fixed"] = float64(w.fixed) / float64(w.reconciles)
	}
	if s := w.shadow; s != nil && s.events > 0 {
		m["core.resynth_paths_per_event"] = float64(s.paths) / float64(s.events)
	}
	return nil
}
