// Command taggerfuzz drives the differential verification battery in
// internal/check over seeded random topologies. Each seed becomes a
// bounded Clos, Jellyfish or BCube instance; the battery cross-checks the
// synthesis algorithms, the serial and parallel pipelines, and the
// compressed and uncompressed TCAM images against the independent oracle.
//
// On a failure the driver greedily shrinks the case to a minimal
// configuration that still fails and writes a runnable Go test to the
// corpus directory, so the divergence survives as a regression test:
//
//	taggerfuzz -seeds 200 -topo all -par 8
//	taggerfuzz -topo jellyfish -seed 1337 -seeds 1   # replay one seed
//	taggerfuzz -churn -seeds 250 -par 8              # churn differential
//	taggerfuzz -cache -seeds 100 -par 8              # synthesis-cache differential
//
// With -churn the battery switches to the fabric-churn differential:
// each seed drives a random link-flap/drain/pod-add sequence through the
// incremental re-synthesis engine and demands rule-for-rule equality
// with from-scratch synthesis after every event (plus the §5.1 oracle).
//
// With -cache every seed's synthesis goes through ONE shared
// fingerprint-keyed cache (internal/synthcache) — cold builds,
// same-instance re-requests, and isomorphic twin instances — and each
// answer must be rule-for-rule identical to from-scratch synthesis and
// pass the oracle. Running seeds in parallel against the shared cache
// also exercises the single-flight and eviction paths under contention.
//
// The seed sweep fans across -par workers (runs are independent; verdicts
// and repro output are reported in seed order, so -par never changes what
// the command prints or writes). Shrinking runs serially after the sweep.
//
// The exit status is the number of failing seeds (capped at 125), so CI
// can gate on it directly.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/check"
	"repro/internal/sweep"
	"repro/internal/synthcache"
	"repro/internal/telemetry/profile"
)

func main() {
	var (
		seeds = flag.Int("seeds", 50, "seeds to run per topology family")
		base  = flag.Int64("seed", 1, "first seed; seeds run [seed, seed+seeds)")
		topo  = flag.String("topo", "all", "topology family: clos, jellyfish, bcube or all")
		out   = flag.String("out", filepath.Join("internal", "check", "testdata", "fuzz-corpus"),
			"directory for shrunk repro tests")
		quiet = flag.Bool("q", false, "only report failures and the final tally")
		par   = flag.Int("par", 0, "sweep worker count (0 = GOMAXPROCS, 1 = serial)")
		churn = flag.Bool("churn", false, "run the churn differential (incremental vs from-scratch synthesis)")
		cfuzz = flag.Bool("cache", false, "run the synthesis-cache differential (cached/stamped vs from-scratch synthesis)")
	)
	prof := profile.AddFlags(flag.CommandLine)
	flag.Parse()
	log.SetFlags(0)

	stop, err := prof.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stop(); err != nil {
			log.Fatal(err)
		}
	}()

	topos := check.Topos()
	if *churn {
		topos = check.ChurnTopos()
	}
	if *cfuzz {
		topos = check.CacheTopos()
	}
	if *topo != "all" {
		found := false
		for _, t := range topos {
			if t == *topo {
				topos, found = []string{t}, true
				break
			}
		}
		if !found {
			log.Fatalf("taggerfuzz: unknown -topo %q (want one of %v or all)", *topo, topos)
		}
	}

	failures := 0
	switch {
	case *churn:
		failures = runChurn(topos, *base, *seeds, *par, *quiet, *out)
	case *cfuzz:
		failures = runCache(topos, *base, *seeds, *par, *quiet)
	default:
		failures = runBattery(topos, *base, *seeds, *par, *quiet, *out)
	}

	if failures > 0 {
		fmt.Printf("taggerfuzz: %d failing seed(s)\n", failures)
		if failures > 125 {
			failures = 125
		}
		if err := stop(); err != nil { // os.Exit skips the deferred stop
			log.Print(err)
		}
		os.Exit(failures)
	}
	fmt.Printf("taggerfuzz: all %d seed(s) clean across %d topolog%s\n",
		*seeds, len(topos), map[bool]string{true: "y", false: "ies"}[len(topos) == 1])
}

// runBattery sweeps the classic differential battery. One verdict per
// (topology, seed); the sweep itself never errors — a failing battery is
// the verdict, carried in the result.
func runBattery(topos []string, base int64, seeds, par int, quiet bool, out string) int {
	type verdict struct {
		c   check.Case
		err error
	}
	failures := 0
	for _, t := range topos {
		t := t
		verdicts, _ := sweep.Run(sweep.Seeds(base, seeds), par,
			func(seed int64) (verdict, error) {
				c := check.GenCase(t, seed)
				return verdict{c: c, err: check.RunCase(c)}, nil
			})
		for _, v := range verdicts {
			if v.err == nil {
				if !quiet {
					fmt.Printf("ok   %s\n", v.c)
				}
				continue
			}
			failures++
			fmt.Printf("FAIL %s\n     %v\n", v.c, v.err)
			min := check.Shrink(v.c, func(c check.Case) bool { return check.RunCase(c) != nil })
			minErr := check.RunCase(min)
			if minErr == nil {
				// Shrink guarantees the returned case fails its predicate;
				// a pass here means the failure is flaky — report the
				// original instead of emitting a lying repro.
				min, minErr = v.c, v.err
			}
			fmt.Printf("     shrunk to %s\n", min)
			path := filepath.Join(out, fmt.Sprintf("repro_%s_test.go", check.ReproName(min)))
			if werr := writeRepro(path, check.ReproSource(min, minErr)); werr != nil {
				log.Printf("taggerfuzz: writing repro: %v", werr)
			} else {
				fmt.Printf("     repro written to %s\n", path)
			}
		}
	}
	return failures
}

// runChurn sweeps the churn differential with the same verdict/shrink/
// repro discipline as the classic battery.
func runChurn(topos []string, base int64, seeds, par int, quiet bool, out string) int {
	type verdict struct {
		c   check.ChurnCase
		err error
	}
	failures := 0
	for _, t := range topos {
		t := t
		verdicts, _ := sweep.Run(sweep.Seeds(base, seeds), par,
			func(seed int64) (verdict, error) {
				c := check.GenChurnCase(t, seed)
				return verdict{c: c, err: check.RunChurnCase(c)}, nil
			})
		for _, v := range verdicts {
			if v.err == nil {
				if !quiet {
					fmt.Printf("ok   %s\n", v.c)
				}
				continue
			}
			failures++
			fmt.Printf("FAIL %s\n     %v\n", v.c, v.err)
			min := check.ShrinkChurn(v.c, func(c check.ChurnCase) bool { return check.RunChurnCase(c) != nil })
			minErr := check.RunChurnCase(min)
			if minErr == nil {
				min, minErr = v.c, v.err
			}
			fmt.Printf("     shrunk to %s\n", min)
			path := filepath.Join(out, fmt.Sprintf("repro_%s_test.go", check.ChurnReproName(min)))
			if werr := writeRepro(path, check.ChurnReproSource(min, minErr)); werr != nil {
				log.Printf("taggerfuzz: writing repro: %v", werr)
			} else {
				fmt.Printf("     repro written to %s\n", path)
			}
		}
	}
	return failures
}

// runCache sweeps the synthesis-cache differential. One cache is shared
// across every seed AND every sweep worker, so parallel runs also stress
// the single-flight and LRU-eviction machinery; the per-case verdict is
// deterministic regardless (every tier must match from-scratch). Cache
// cases are cheap and fully determined by (topo, seed), so failures are
// reported directly without the shrink/repro pipeline.
func runCache(topos []string, base int64, seeds, par int, quiet bool) int {
	type verdict struct {
		c   check.CacheCase
		err error
	}
	cache := synthcache.New(48)
	failures := 0
	for _, t := range topos {
		t := t
		verdicts, _ := sweep.Run(sweep.Seeds(base, seeds), par,
			func(seed int64) (verdict, error) {
				c := check.GenCacheCase(t, seed)
				return verdict{c: c, err: check.RunCacheCase(c, cache)}, nil
			})
		for _, v := range verdicts {
			if v.err == nil {
				if !quiet {
					fmt.Printf("ok   %s\n", v.c)
				}
				continue
			}
			failures++
			fmt.Printf("FAIL %s\n     %v\n", v.c, v.err)
		}
	}
	st := cache.Stats()
	fmt.Printf("taggerfuzz: cache stats: %d hits / %d misses (ratio %.2f), %d pod-stamped, %d evictions, %d single-flight waits\n",
		st.Hits, st.Misses, st.HitRatio(), st.PodStamped, st.Evictions, st.SingleFlightWait)
	return failures
}

func writeRepro(path, src string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(src), 0o644)
}
