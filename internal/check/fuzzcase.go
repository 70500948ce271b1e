package check

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/elp"
	"repro/internal/routing"
	"repro/internal/synthcache"
	"repro/internal/topology"
)

// Case is one self-contained differential-fuzz input: the check it drives
// (Mode), a topology family with its knobs, and the mode's own knobs.
// Everything is plain exported ints so a failing case round-trips through
// the emitted repro test verbatim. A knob the (mode, family) pair does not
// use stays zero.
type Case struct {
	Mode Mode
	Topo string // a family of Mode.Topos()
	Seed int64  // drives random wiring and the mode's random choices

	// Clos knobs; MaxBounces is also the fat-tree's bounce budget.
	Pods, ToRsPerPod, LeafsPerPod, Spines, HostsPerToR int
	MaxBounces                                         int

	// Jellyfish knobs.
	Switches, Ports, NetPorts int

	// BCube knobs; K is also the fat-tree arity (even, >= 4).
	N, K int

	ExtraPaths int // Battery: seeded random paths added to the base ELP
	Deviations int // Battery: seeded off-ELP paths replayed through the pipelines
	Workers    int // Battery, Churn: worker count diffed against serial

	Events  int // Churn: churn sequence length
	PodAdds int // Churn: pod expansions interleaved into the sequence (Clos only)

	// Cache: switch-to-switch links failed before synthesis, so non-uniform
	// fabrics (the pod-stamping fallback) are covered too.
	FailLinks int
}

// Mode selects the differential a Case drives.
type Mode uint8

const (
	// Battery is RunCase: algorithms, schemes, serial vs parallel
	// pipelines and TCAM images against the oracle.
	Battery Mode = iota
	// Churn is RunChurnCase: incremental re-synthesis under a seeded
	// churn sequence against from-scratch synthesis.
	Churn
	// Cache is RunCacheCase: cached and pod-stamped synthesis against
	// from-scratch synthesis.
	Cache
)

// knob is one shrinkable int field of a Case: its label in the case
// string, its Go field name, its floor, and the one family it belongs to
// when it is not every family's.
type knob struct {
	label, field string
	floor        int
	only         string
}

// familyKnobs lists each family's topology knobs in case-string order.
var familyKnobs = map[string][]knob{
	"clos": {{"pods", "Pods", 1, ""}, {"tors", "ToRsPerPod", 1, ""}, {"leafs", "LeafsPerPod", 1, ""},
		{"spines", "Spines", 1, ""}, {"hosts", "HostsPerToR", 0, ""}, {"k", "MaxBounces", 1, ""}},
	"jellyfish": {{"sw", "Switches", 3, ""}, {"ports", "Ports", 3, ""}, {"net", "NetPorts", 2, ""}},
	"bcube":     {{"n", "N", 2, ""}, {"k", "K", 1, ""}},
	"fattree":   {{"k", "K", 4, ""}, {"bounces", "MaxBounces", 1, ""}},
}

// modes is the one table of what each mode runs: its families, its own
// knobs (case-string order), whether Shrink tries those before the
// family's, and the name, identifier and check call its repro uses.
var modes = [...]struct {
	name, ident, call string
	topos             []string
	knobs             []knob
	ownFirst          bool
}{
	Battery: {
		name: "battery", ident: "Battery", call: "RunCase(c)",
		topos: []string{"clos", "jellyfish", "bcube"},
		knobs: []knob{{"extra", "ExtraPaths", 0, ""}, {"dev", "Deviations", 0, ""}, {"par", "Workers", 2, ""}},
	},
	// BCube is out of the churn mode: its ELP recipe is server-centric and
	// the churn model (drains, pod adds) is switch-fabric shaped. Events
	// shrink first: under a fixed seed a shorter sequence is a prefix of a
	// longer one, so this trims events off the tail.
	Churn: {
		name: "churn", ident: "Churn", call: "RunChurnCase(c)",
		topos:    []string{"clos", "jellyfish"},
		knobs:    []knob{{"ev", "Events", 1, ""}, {"podadds", "PodAdds", 0, "clos"}, {"par", "Workers", 1, ""}},
		ownFirst: true,
	},
	Cache: {
		name: "cache", ident: "Cache", call: "RunCacheCase(c, nil)",
		topos: []string{"clos", "fattree", "jellyfish"},
		knobs: []knob{{"fail", "FailLinks", 0, ""}},
	},
}

func (m Mode) String() string { return modes[m].name }

// Topos lists the families the mode covers.
func (m Mode) Topos() []string { return modes[m].topos }

// Topos lists the families the battery covers.
func Topos() []string { return Battery.Topos() }

// Run drives c through its mode's check. cache is the cache mode's shared
// cache; nil gives the case a fresh one.
func Run(c Case, cache *synthcache.Cache) error {
	switch c.Mode {
	case Churn:
		return RunChurnCase(c)
	case Cache:
		return RunCacheCase(c, cache)
	}
	return RunCase(c)
}

// knobs returns c's knobs: the family's, then the mode's that apply.
func (c Case) knobs() []knob {
	ks := slices.Clone(familyKnobs[c.Topo])
	for _, k := range modes[c.Mode].knobs {
		if k.only == "" || k.only == c.Topo {
			ks = append(ks, k)
		}
	}
	return ks
}

// at returns the field k names.
func (c *Case) at(k knob) *int {
	return reflect.ValueOf(c).Elem().FieldByName(k.field).Addr().Interface().(*int)
}

func (c Case) String() string {
	var b strings.Builder
	if c.Mode != Battery {
		b.WriteString(c.Mode.String() + "-")
	}
	b.WriteString(c.Topo + "{")
	for _, k := range c.knobs() {
		fmt.Fprintf(&b, "%s=%d ", k.label, *c.at(k))
	}
	fmt.Fprintf(&b, "seed=%d}", c.Seed)
	return b.String()
}

// GenCase derives a battery case from a seed.
func GenCase(topo string, seed int64) Case { return Battery.Gen(topo, seed) }

// Gen derives a case of mode m from a seed, keeping every knob inside
// bounds where one run stays sub-second: the fuzz loop's value is input
// diversity, not instance size.
func (m Mode) Gen(topo string, seed int64) Case {
	rng := rand.New(rand.NewSource(seed))
	c := Case{Mode: m, Topo: topo, Seed: seed}
	switch m {
	case Battery:
		c.ExtraPaths, c.Deviations, c.Workers = rng.Intn(6), 4+rng.Intn(8), 2+rng.Intn(3)
		c.genFamily(rng, 1, 3, 3)
		if topo == "clos" && c.Pods*c.ToRsPerPod < 2 {
			c.ToRsPerPod = 2 // at least one endpoint pair
		}
	case Churn:
		// Each event pays one from-scratch reference synthesis.
		c.Events, c.Workers = 6+rng.Intn(10), 1+rng.Intn(3)
		c.genFamily(rng, 2, 2, 2)
		if topo == "clos" {
			c.PodAdds = rng.Intn(2)
		}
	case Cache:
		c.genFamily(rng, 2, 3, 2)
		if rng.Intn(3) == 0 {
			c.FailLinks = 1 + rng.Intn(2)
		}
	}
	return c
}

// genFamily draws the topology knobs; a Clos gets pods in
// [pods, pods+podSpan) and hosts per ToR in [0, hostSpan).
func (c *Case) genFamily(rng *rand.Rand, pods, podSpan, hostSpan int) {
	switch c.Topo {
	case "clos":
		c.Pods = pods + rng.Intn(podSpan)
		c.ToRsPerPod = 1 + rng.Intn(2)
		c.LeafsPerPod = 1 + rng.Intn(2)
		c.Spines = 1 + rng.Intn(3)
		c.HostsPerToR = rng.Intn(hostSpan)
		c.MaxBounces = 1 + rng.Intn(2)
	case "jellyfish":
		c.Switches = 4 + rng.Intn(7)
		c.NetPorts = min(2+rng.Intn(2), c.Switches-1)
		c.Ports = c.NetPorts + 1 + rng.Intn(3)
	case "bcube":
		c.N = 2 + rng.Intn(2)
		c.K = 1
		if c.N == 2 && rng.Intn(2) == 0 {
			c.K = 2
		}
	case "fattree":
		c.K = 4 + 2*rng.Intn(2)
		c.MaxBounces = 1
	}
}

// validConfig reports whether the knobs describe a buildable instance
// with at least one endpoint pair: every knob at or above its floor,
// every field no knob names zero, and the family's cross-knob limits. The
// shrinker consults it so greedy descent cannot wander from a genuine
// divergence into an impossible configuration whose build error also
// "fails".
func (c Case) validConfig() bool {
	if int(c.Mode) >= len(modes) || !slices.Contains(c.Mode.Topos(), c.Topo) {
		return false
	}
	named := make(map[string]bool)
	for _, k := range c.knobs() {
		if *c.at(k) < k.floor {
			return false
		}
		named[k.field] = true
	}
	v := reflect.ValueOf(c)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Type().Field(i); f.Type.Kind() == reflect.Int && !named[f.Name] && v.Field(i).Int() != 0 {
			return false
		}
	}
	switch c.Topo {
	case "clos":
		return c.Pods*c.ToRsPerPod >= 2
	case "jellyfish":
		return c.NetPorts < c.Switches && c.NetPorts <= c.Ports
	case "fattree":
		return c.K%2 == 0
	}
	return true
}

// fabric is one built instance of a case's topology.
type fabric struct {
	g         *topology.Graph
	endpoints []topology.NodeID // the ELP's endpoints
	clos      *topology.Clos    // clos only: pod adds Expand it
	bcube     *topology.BCube   // bcube only
}

// build materializes one instance of the case's topology. The builders
// are deterministic, so two calls give twin instances with distinct
// graph pointers.
func (c Case) build() (*fabric, error) {
	switch c.Topo {
	case "clos":
		cl, err := topology.NewClos(topology.ClosConfig{
			Pods: c.Pods, ToRsPerPod: c.ToRsPerPod, LeafsPerPod: c.LeafsPerPod,
			Spines: c.Spines, HostsPerToR: c.HostsPerToR,
		})
		if err != nil {
			return nil, err
		}
		return &fabric{g: cl.Graph, endpoints: cl.ToRs, clos: cl}, nil
	case "jellyfish":
		j, err := topology.NewJellyfish(topology.JellyfishConfig{
			Switches: c.Switches, Ports: c.Ports, NetPorts: c.NetPorts,
			Seed: c.Seed, Attempts: 64,
		})
		if err != nil {
			return nil, err
		}
		return &fabric{g: j.Graph, endpoints: j.Switches}, nil
	case "bcube":
		b, err := topology.NewBCube(c.N, c.K)
		if err != nil {
			return nil, err
		}
		return &fabric{g: b.Graph, endpoints: b.Servers, bcube: b}, nil
	case "fattree":
		ft, err := topology.NewFatTree(c.K)
		if err != nil {
			return nil, err
		}
		return &fabric{g: ft.Graph, endpoints: ft.Edges}, nil
	}
	return nil, fmt.Errorf("check: unknown topology family %q", c.Topo)
}

// elp runs the family's ELP policy over the fabric as it is now. A Clos
// re-reads its ToRs, so pod adds pick up the new ones; enumeration sees
// only healthy links.
func (c Case) elp(f *fabric) *elp.Set {
	switch c.Topo {
	case "clos":
		return elp.KBounce(f.g, f.clos.ToRs, c.MaxBounces, nil)
	case "fattree":
		return elp.KBounce(f.g, f.endpoints, c.MaxBounces, nil)
	case "bcube":
		return elp.BCubeELP(f.bcube, f.endpoints)
	}
	return elp.ShortestAllN(f.g, f.endpoints, 1)
}

// RunCase executes the full differential battery on one case and returns
// the first divergence or invariant violation:
//
//  1. oracle re-verification of everything both generic algorithms built;
//  2. scheme differential (Alg1 vs Alg2 vs, on Clos, the bounce scheme);
//  3. serial-vs-parallel synthesis, rule for rule;
//  4. compressed-vs-uncompressed TCAM decisions, exhaustively and along
//     both ELP and seeded deviation paths, correct and legacy egress.
func RunCase(c Case) error {
	f, err := c.build()
	if err != nil {
		return fmt.Errorf("check: building %s: %w", c, err)
	}
	g := f.g
	// The base set is what the Clos scheme (bounce budget) is held to; the
	// generic algorithms get it extended by the seeded random paths.
	base := c.elp(f)
	if base.Len() == 0 {
		return fmt.Errorf("check: empty base ELP for %s", c)
	}
	ext := elp.NewSet()
	if err := ext.AddAll(g, base.Paths()); err != nil {
		return err
	}
	elp.AddRandomPaths(ext, g, f.endpoints, c.ExtraPaths, 8, c.Seed+1)

	var closBase []routing.Path
	if c.Topo == "clos" {
		closBase = base.Paths()
	}
	if _, err := DiffSchemes(g, ext.Paths(), closBase, c.MaxBounces); err != nil {
		return fmt.Errorf("%s: %w", c, err)
	}

	par := max(c.Workers, 2)
	if err := DiffParallelism(g, ext.Paths(), par); err != nil {
		return fmt.Errorf("%s: %w", c, err)
	}

	s, err := core.Synthesize(g, ext.Paths(), core.Options{Workers: 1})
	if err != nil {
		return fmt.Errorf("%s: synthesis: %w", c, err)
	}
	rulesets := []*core.Ruleset{s.Rules}
	if c.Topo == "clos" {
		rulesets = append(rulesets, core.ClosRules(g, c.MaxBounces, 1))
	}
	deviations := elp.DeviationPaths(g, ext, f.endpoints, c.Deviations, 8, c.Seed+2)
	for _, rs := range rulesets {
		if diffs := DiffDecisionsExhaustive(rs, par); len(diffs) > 0 {
			return fmt.Errorf("%s: %d compressed/uncompressed decision diffs (first: %s)",
				c, len(diffs), diffs[0])
		}
		if err := DiffCompiledParallelism(rs, par); err != nil {
			return fmt.Errorf("%s: %w", c, err)
		}
		if err := ReplayPaths(rs, deviations, ReplayOpts{Par: par}); err != nil {
			return fmt.Errorf("%s: deviation replay: %w", c, err)
		}
	}
	if err := ReplayPaths(s.Rules, ext.Paths(), ReplayOpts{Par: par, RequireLossless: true}); err != nil {
		return fmt.Errorf("%s: ELP replay: %w", c, err)
	}
	if len(closBase) > 0 {
		if err := ReplayPaths(rulesets[1], closBase, ReplayOpts{Par: par, RequireLossless: true}); err != nil {
			return fmt.Errorf("%s: clos ELP replay: %w", c, err)
		}
	}
	return nil
}

// sameSystem demands got be indistinguishable from the from-scratch
// reference ref: identical rules, max tag and conflicts, the same ELP as
// a set (stamped and tracked path orders may differ from enumeration
// order), identical vertices and edges in every tagged graph both carry
// (one carried on one side only is a divergence), and a clean pass of
// the independent oracle.
func sameSystem(got, ref *core.System) error {
	if diffs := DiffRulesets(ref.Rules, got.Rules); len(diffs) > 0 {
		return fmt.Errorf("rules diverge from the reference (%d diffs; first: %s)", len(diffs), diffs[0])
	}
	if a, b := ref.Rules.MaxTag(), got.Rules.MaxTag(); a != b {
		return fmt.Errorf("max tag %d, reference %d", b, a)
	}
	if !reflect.DeepEqual(ref.Conflicts, got.Conflicts) {
		return fmt.Errorf("conflicts diverge: %v, reference %v", got.Conflicts, ref.Conflicts)
	}
	key := func(ps []routing.Path) []string {
		out := make([]string, len(ps))
		for i, p := range ps {
			out[i] = p.Key()
		}
		slices.Sort(out)
		return out
	}
	if ka, kb := key(got.ELP), key(ref.ELP); !slices.Equal(ka, kb) {
		return fmt.Errorf("ELP differs from the reference's as a set (%d vs %d paths)", len(ka), len(kb))
	}
	graphs := []struct {
		name     string
		got, ref *core.TaggedGraph
	}{
		{"brute-force", got.BruteForce, ref.BruteForce},
		{"merged", got.Merged, ref.Merged},
		{"runtime", got.Runtime, ref.Runtime},
	}
	for _, gp := range graphs {
		if (gp.got == nil) != (gp.ref == nil) {
			return fmt.Errorf("%s graph present on one side only", gp.name)
		}
		if gp.got != nil && (!slices.Equal(gp.got.Nodes(), gp.ref.Nodes()) || !slices.Equal(gp.got.Edges(), gp.ref.Edges())) {
			return fmt.Errorf("%s graphs diverge: %d/%d vertices, %d/%d edges", gp.name,
				gp.got.NumNodes(), gp.ref.NumNodes(), gp.got.NumEdges(), gp.ref.NumEdges())
		}
	}
	if err := VerifySystem(got); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	return nil
}

// Shrink minimizes a failing case by greedy per-knob descent: it walks
// the mode's knob table (the family's knobs, and the mode's own before or
// after them), repeatedly trying each knob's floor and then single steps
// down while fails keeps returning true, until a full pass changes
// nothing. The result fails the same predicate but is as small as greedy
// descent gets — usually a two-switch fabric with a handful of paths.
func Shrink(c Case, fails func(Case) bool) Case {
	fam, own := familyKnobs[c.Topo], c.knobs()[len(familyKnobs[c.Topo]):]
	all := append(slices.Clone(fam), own...)
	if modes[c.Mode].ownFirst {
		all = append(slices.Clone(own), fam...)
	}
	for changed := true; changed; {
		changed = false
		for _, k := range all {
			for {
				cur := *c.at(k)
				if cur <= k.floor {
					break
				}
				// Try the floor first (one probe often finishes the
				// field), then single steps. Structurally impossible
				// candidates are never probed: their build errors would
				// satisfy fails for the wrong reason.
				cand := c
				*cand.at(k) = k.floor
				if !cand.validConfig() || !fails(cand) {
					cand = c
					*cand.at(k) = cur - 1
					if !cand.validConfig() || !fails(cand) {
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

// ReproName returns the deterministic identifier a case's repro test and
// corpus file use: the mode (none for the battery), the topology family
// and the originating seed.
func ReproName(c Case) string {
	if c.Mode == Battery {
		return fmt.Sprintf("%s_seed%d", c.Topo, c.Seed)
	}
	return fmt.Sprintf("%s_%s_seed%d", c.Mode, c.Topo, c.Seed)
}

// ReproSource renders a shrunk failing case as a self-contained runnable
// Go test that reruns the case's mode. taggerfuzz persists it under
// testdata/fuzz-corpus (which `go test` ignores); copying the file into
// internal/check/ makes the repro a first-class regression test:
//
//	cp testdata/fuzz-corpus/repro_clos_seed7_test.go internal/check/
//	go test ./internal/check -run TestRepro_clos_seed7
func ReproSource(c Case, failure error) string {
	var b strings.Builder
	b.WriteString("// Code generated by taggerfuzz; minimal shrunk repro. DO NOT EDIT.\n//\n// Original failure:\n")
	for _, line := range strings.Split(failure.Error(), "\n") {
		fmt.Fprintf(&b, "//\t%s\n", line)
	}
	b.WriteString("package check_test\n\nimport (\n\t\"testing\"\n\n\t\"repro/internal/check\"\n)\n\n")
	fmt.Fprintf(&b, "func TestRepro_%s(t *testing.T) {\n\tc := check.Case{\n", ReproName(c))
	fmt.Fprintf(&b, "\t\tMode: check.%s,\n\t\tTopo: %q,\n\t\tSeed: %d,\n", modes[c.Mode].ident, c.Topo, c.Seed)
	for _, k := range c.knobs() {
		fmt.Fprintf(&b, "\t\t%s: %d,\n", k.field, *c.at(k))
	}
	fmt.Fprintf(&b, "\t}\n\tif err := check.%s; err != nil {\n", modes[c.Mode].call)
	b.WriteString("\t\tt.Fatalf(\"repro still failing: %v\", err)\n\t}\n}\n")
	return b.String()
}
