package tagger

import (
	"fmt"
	"math/rand"

	"repro/internal/paper"
	"repro/internal/routing"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// Table 1 reproduces the paper's §3.2 up-down-violation measurement:
// servers send IP-in-IP probes to the highest-layer switches; the switch
// decapsulates and routes the probe back using the inner header with TTL
// 64; a received TTL below the shortest-path value proves the probe took
// a reroute (bounce) path.
//
// The authors had production telemetry from more than 20 data centers; we
// drive the same probe arithmetic over a simulated failure process on a
// Clos, calibrated so per-measurement reroute probability lands in the
// paper's observed ~1e-5 band.

// Table1Result reproduces the reroute-probability measurement.
type Table1Result struct {
	Rows []DayResult
}

// OverallProbability returns the pooled reroute probability.
func (r Table1Result) OverallProbability() float64 {
	var total, rer int64
	for _, row := range r.Rows {
		total += row.Total
		rer += row.Rerouted
	}
	if total == 0 {
		return 0
	}
	return float64(rer) / float64(total)
}

// String renders the table like the paper's Table 1.
func (r Table1Result) String() string {
	t := telemetry.NewTable("Day", "Total No.", "Rerouted No.", "Reroute probability")
	for _, row := range r.Rows {
		t.AddRow(row.Day, row.Total, row.Rerouted, fmt.Sprintf("%.2e", row.Probability))
	}
	return t.String()
}

// Table1 runs the IP-in-IP probe campaign: days of measurements over a
// Clos with a transient link-failure process (§3.2).
func Table1(days int, perDay int64) Table1Result {
	return Table1Result{Rows: runProbeCampaign(paper.Testbed(), defaultProbeConfig(), days, perDay)}
}

// probeConfig parameterizes the measurement campaign.
type probeConfig struct {
	// ProbesPerMeasurement is the paper's n = 100.
	ProbesPerMeasurement int
	// InitialTTL of the inner header; the paper uses 64.
	InitialTTL int
	// EpisodeRate is the probability that a new link-failure episode
	// begins at any given measurement tick.
	EpisodeRate float64
	// EpisodeLength is how many measurement ticks a failure persists
	// ("such routes can persist for minutes or even longer").
	EpisodeLength int
	// Seed drives the deterministic random process.
	Seed int64
}

// defaultProbeConfig matches the paper's methodology with an episode
// process calibrated to land in the ~1e-5 reroute-probability band for
// the testbed-sized Clos.
func defaultProbeConfig() probeConfig {
	return probeConfig{
		ProbesPerMeasurement: 100,
		InitialTTL:           64,
		EpisodeRate:          1e-5,
		EpisodeLength:        40,
		Seed:                 1,
	}
}

// DayResult is one row of Table 1.
type DayResult struct {
	Day         int
	Total       int64 // measurements taken
	Rerouted    int64 // measurements that saw a rerouted probe
	Probability float64
}

// String renders the row like the paper's table.
func (d DayResult) String() string {
	return fmt.Sprintf("day %d: total=%d rerouted=%d p=%.2e",
		d.Day, d.Total, d.Rerouted, d.Probability)
}

// probeCampaign runs the probe methodology over a Clos.
type probeCampaign struct {
	clos *topology.Clos
	cfg  probeConfig
	rng  *rand.Rand

	// Active failure episodes: remaining ticks per failed link.
	active map[topology.LinkID]int

	// intended caches the healthy downward route of each (spine, host)
	// probe. A failure on the intended route forces a detour from the
	// failure point — the local reroute real networks take, which (unlike
	// a globally recomputed shortest path) can be longer and lower the
	// received TTL.
	intended map[[2]topology.NodeID]routing.Path
}

// newProbeCampaign prepares a campaign over the given Clos.
func newProbeCampaign(c *topology.Clos, cfg probeConfig) *probeCampaign {
	mc := &probeCampaign{
		clos:     c,
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		active:   make(map[topology.LinkID]int),
		intended: make(map[[2]topology.NodeID]routing.Path),
	}
	for _, s := range c.Spines {
		for _, h := range c.Hosts {
			mc.intended[[2]topology.NodeID{s, h}] = routing.ShortestPath(c.Graph, s, h)
		}
	}
	return mc
}

// fabricLinks returns the switch-to-switch links (candidates for failure).
func (mc *probeCampaign) fabricLinks() []topology.LinkID {
	g := mc.clos.Graph
	var out []topology.LinkID
	for i := 0; i < g.NumLinks(); i++ {
		l := g.Link(topology.LinkID(i))
		if g.Node(l.A).Kind.IsSwitch() && g.Node(l.B).Kind.IsSwitch() {
			out = append(out, l.ID)
		}
	}
	return out
}

// runDay executes measurements measurement ticks and returns the day row.
// Each tick: advance the failure process, pick a random (server, spine)
// pair, decapsulate at the spine, and route the probe back over the
// current topology; if any of the n probes sees TTL below the healthy
// value, the measurement counts as rerouted.
func (mc *probeCampaign) runDay(day int, measurements int64) DayResult {
	g := mc.clos.Graph
	links := mc.fabricLinks()
	hosts := mc.clos.Hosts
	spines := mc.clos.Spines

	res := DayResult{Day: day, Total: measurements}
	for i := int64(0); i < measurements; i++ {
		// Failure process.
		for l, left := range mc.active {
			if left <= 1 {
				g.Link(l).Failed = false
				delete(mc.active, l)
			} else {
				mc.active[l] = left - 1
			}
		}
		if mc.rng.Float64() < mc.cfg.EpisodeRate {
			l := links[mc.rng.Intn(len(links))]
			if _, already := mc.active[l]; !already {
				g.Link(l).Failed = true
				mc.active[l] = mc.cfg.EpisodeLength
			}
		}

		host := hosts[mc.rng.Intn(len(hosts))]
		spine := spines[mc.rng.Intn(len(spines))]
		if mc.measurementSeesReroute(spine, host) {
			res.Rerouted++
		}
	}
	if res.Total > 0 {
		res.Probability = float64(res.Rerouted) / float64(res.Total)
	}
	// Clean up any episodes that outlived the day.
	for l := range mc.active {
		g.Link(l).Failed = false
		delete(mc.active, l)
	}
	return res
}

// measurementSeesReroute walks one probe's intended downward route from
// the spine. If a hop's link is failed, the probe detours: it follows the
// shortest route from the failure point over the degraded topology (a
// bounce back up when the failure is below). The received TTL is lower
// than expected iff the detour lengthened the path.
func (mc *probeCampaign) measurementSeesReroute(spine, host topology.NodeID) bool {
	if len(mc.active) == 0 {
		return false // healthy network: TTL always as expected
	}
	g := mc.clos.Graph
	p := mc.intended[[2]topology.NodeID{spine, host}]
	hops := 0
	for i := 0; i+1 < len(p); i++ {
		l := g.LinkBetween(p[i], p[i+1])
		if l == nil || !l.Failed {
			hops++
			continue
		}
		// Detour from the failure point.
		detour := routing.ShortestPath(g, p[i], host)
		if detour == nil {
			return true // probe lost: certainly anomalous
		}
		hops += detour.Hops()
		break
	}
	return hops > p.Hops()
}

// runProbeCampaign produces the full Table 1: one row per day.
func runProbeCampaign(c *topology.Clos, cfg probeConfig, days int, perDay int64) []DayResult {
	mc := newProbeCampaign(c, cfg)
	out := make([]DayResult, 0, days)
	for d := 1; d <= days; d++ {
		out = append(out, mc.runDay(d, perDay))
	}
	return out
}
