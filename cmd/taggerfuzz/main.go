// Command taggerfuzz drives the differential checks in internal/check
// over seeded random topologies. Each seed becomes a bounded instance of
// one topology family, and the selected differential runs on it:
//
//   - by default the battery: the synthesis algorithms, the serial and
//     parallel pipelines, and the compressed and uncompressed TCAM images
//     are cross-checked against the independent oracle on Clos,
//     Jellyfish and BCube;
//   - with -churn, each seed drives a random link-flap/drain/pod-add
//     sequence through the incremental re-synthesis engine, which must
//     equal from-scratch synthesis rule for rule after every event (and
//     pass the §5.1 oracle), on Clos and Jellyfish;
//   - with -cache, every seed's synthesis goes through ONE shared cache
//     (internal/synthcache) — a cold build, a same-instance re-request
//     that must hit, and a rebuilt twin instance, which a hit never
//     serves (it needs the instance that built the entry) and which is
//     therefore rebuilt — and each answer must equal from-scratch
//     synthesis and pass the oracle, on Clos, fat-tree and Jellyfish.
//     Running seeds in parallel against the shared cache also exercises
//     the single-flight and eviction paths under contention.
//
// -churn and -cache are exclusive. On a failure the driver greedily
// shrinks the case to a minimal configuration that still fails (cache
// probes each get a fresh cache) and writes a runnable Go test to the
// corpus directory, so the divergence survives as a regression test:
//
//	taggerfuzz -seeds 200 -topo all -par 8
//	taggerfuzz -topo jellyfish -seed 1337 -seeds 1   # replay one seed
//	taggerfuzz -churn -seeds 250 -par 8              # churn differential
//	taggerfuzz -cache -seeds 100 -par 8              # synthesis-cache differential
//
// The seed sweep fans across -par workers (runs are independent; verdicts
// and repro output are reported in seed order, so -par never changes what
// the command prints or writes, except the cache's hit counts). Shrinking
// runs serially after the sweep.
//
// The exit status is the number of failing seeds (capped at 125), so CI
// can gate on it directly; a usage error exits 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/check"
	"repro/internal/sweep"
	"repro/internal/synthcache"
	"repro/internal/telemetry/profile"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one taggerfuzz invocation and returns its exit status.
func run(args []string, stdout, stderr io.Writer) (status int) {
	fs := flag.NewFlagSet("taggerfuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seeds = fs.Int("seeds", 50, "seeds to run per topology family")
		base  = fs.Int64("seed", 1, "first seed; seeds run [seed, seed+seeds)")
		topo  = fs.String("topo", "all", "topology family of the selected differential, or all")
		out   = fs.String("out", filepath.Join("internal", "check", "testdata", "fuzz-corpus"),
			"directory for shrunk repro tests")
		quiet = fs.Bool("q", false, "only report failures and the final tally")
		par   = fs.Int("par", 0, "sweep worker count (0 = GOMAXPROCS, 1 = serial)")
		churn = fs.Bool("churn", false, "run the churn differential (incremental vs from-scratch synthesis)")
		cfuzz = fs.Bool("cache", false, "run the synthesis-cache differential (cached/stamped vs from-scratch synthesis)")
	)
	prof := profile.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mode := check.Battery
	switch {
	case *churn && *cfuzz:
		fmt.Fprintln(stderr, "taggerfuzz: -churn and -cache select different differentials; pass at most one")
		fs.Usage()
		return 2
	case *churn:
		mode = check.Churn
	case *cfuzz:
		mode = check.Cache
	}
	topos := mode.Topos()
	if *topo != "all" {
		if !slices.Contains(topos, *topo) {
			fmt.Fprintf(stderr, "taggerfuzz: unknown -topo %q for the %s differential (want one of %v or all)\n", *topo, mode, topos)
			return 2
		}
		topos = []string{*topo}
	}

	stop, err := prof.Start()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer func() {
		if err := stop(); err != nil {
			fmt.Fprintln(stderr, err)
			status = max(status, 1)
		}
	}()

	// A cache sweep shares one cache across every seed AND every sweep
	// worker; each case's verdict is deterministic regardless (every tier
	// must match from-scratch synthesis).
	var cache *synthcache.Cache
	if mode == check.Cache {
		cache = synthcache.New(48)
	}
	type verdict struct {
		c   check.Case
		err error
	}
	failures := 0
	for _, t := range topos {
		// The sweep itself never errors: a failing check is the verdict.
		verdicts, _ := sweep.Run(sweep.Seeds(*base, *seeds), *par, func(seed int64) (verdict, error) {
			c := mode.Gen(t, seed)
			return verdict{c: c, err: check.Run(c, cache)}, nil
		})
		for _, v := range verdicts {
			if v.err == nil {
				if !*quiet {
					fmt.Fprintf(stdout, "ok   %s\n", v.c)
				}
				continue
			}
			failures++
			fmt.Fprintf(stdout, "FAIL %s\n     %v\n", v.c, v.err)
			small := check.Shrink(v.c, func(c check.Case) bool { return check.Run(c, nil) != nil })
			smallErr := check.Run(small, nil)
			if smallErr == nil {
				// Shrink guarantees the returned case fails its predicate;
				// a pass here means the failure is flaky, or needed the
				// sweep's shared cache — report the original instead of
				// emitting a lying repro.
				small, smallErr = v.c, v.err
			}
			fmt.Fprintf(stdout, "     shrunk to %s\n", small)
			path := filepath.Join(*out, fmt.Sprintf("repro_%s_test.go", check.ReproName(small)))
			if err := writeRepro(path, check.ReproSource(small, smallErr)); err != nil {
				fmt.Fprintf(stderr, "taggerfuzz: writing repro: %v\n", err)
			} else {
				fmt.Fprintf(stdout, "     repro written to %s\n", path)
			}
		}
	}
	if cache != nil {
		st := cache.Stats()
		fmt.Fprintf(stdout, "taggerfuzz: cache stats: %d hits / %d misses (ratio %.2f), %d pod-stamped, %d evictions, %d single-flight waits\n",
			st.Hits, st.Misses, st.HitRatio(), st.PodStamped, st.Evictions, st.SingleFlightWait)
	}

	if failures > 0 {
		fmt.Fprintf(stdout, "taggerfuzz: %d failing seed(s)\n", failures)
		return min(failures, 125)
	}
	fmt.Fprintf(stdout, "taggerfuzz: all %d seed(s) clean across %d topolog%s\n",
		*seeds, len(topos), map[bool]string{true: "y", false: "ies"}[len(topos) == 1])
	return 0
}

func writeRepro(path, src string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(src), 0o644)
}
