package dataplane

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/elp"
	"repro/internal/topology"
)

// jellyfishRules synthesizes the shortest-path ruleset of a seeded
// Jellyfish, the Table 5 fabrics.
func jellyfishRules(tb testing.TB, switches, ports int) (*topology.Graph, *core.Ruleset) {
	tb.Helper()
	j, err := topology.NewJellyfish(topology.JellyfishConfig{Switches: switches, Ports: ports, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := core.Synthesize(j.Graph, elp.ShortestAll(j.Graph, j.Switches).Paths(), core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return j.Graph, sys.Rules
}

// compileBytesPerRule is the heap Compile allocates per installed rule.
// The measure is deterministic where a timing would not be: a Compile
// that re-materializes (and re-sorts) the whole table for each switch
// allocates switches × rules, one that cuts each switch's run out of the
// sorted order allocates a constant per rule.
func compileBytesPerRule(g *topology.Graph, rs *core.Ruleset) float64 {
	rs.Rules() // leave the one-off sort outside the measurement
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fab := Compile(g, rs)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(fab)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(rs.Len())
}

// TestCompileScalesLinearly is the regression test for RulesAt sorting
// the full table once per switch, which made Compile on Jellyfish-200
// take about a second: quadrupling the switch count must leave the cost
// per rule where it was.
func TestCompileScalesLinearly(t *testing.T) {
	gSmall, rsSmall := jellyfishRules(t, 50, 12)
	gLarge, rsLarge := jellyfishRules(t, 200, 24)
	small := compileBytesPerRule(gSmall, rsSmall)
	large := compileBytesPerRule(gLarge, rsLarge)
	t.Logf("Compile allocates %.0f B/rule on Jellyfish-50 (%d rules), %.0f B/rule on Jellyfish-200 (%d rules)",
		small, rsSmall.Len(), large, rsLarge.Len())
	if large > 2*small {
		t.Fatalf("Compile cost per rule grew %.1fx from 50 to 200 switches: not linear in the table", large/small)
	}
}
