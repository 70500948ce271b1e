// Command taggerscale reproduces the scalability evaluation: Table 5's
// Jellyfish sweep (priorities and TCAM entries vs size) plus the BCube
// and Clos tag counts.
//
// Usage:
//
//	taggerscale                         # the default Table 5 sweep
//	taggerscale -switches 500 -ports 24 # one custom Jellyfish point
//	taggerscale -switches 500 -random 10000
//	taggerscale -switches 500 -par 1    # force the serial synthesis path
//	taggerscale -bcube                  # BCube levels vs tags
//	taggerscale -cache                  # synthesis-cache cold/warm demo
//	taggerscale -cpuprofile cpu.out -switches 200
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	tagger "repro"
	"repro/internal/core"
	"repro/internal/elp"
	"repro/internal/synthcache"
	"repro/internal/telemetry"
	"repro/internal/telemetry/profile"
	"repro/internal/topology"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("taggerscale: ")

	var (
		switches  = flag.Int("switches", 0, "custom Jellyfish switch count (0 = default sweep)")
		ports     = flag.Int("ports", 24, "custom Jellyfish ports per switch")
		random    = flag.Int("random", 0, "extra random ELP paths")
		seed      = flag.Int64("seed", 1, "Jellyfish seed")
		bcube     = flag.Bool("bcube", false, "run the BCube tag-count sweep instead")
		fattree   = flag.Bool("fattree", false, "run the fat-tree sweep instead")
		par       = flag.Int("par", 0, "synthesis worker count (0 = GOMAXPROCS, 1 = serial legacy path)")
		ops       = flag.String("ops", "", "serve /metrics, /healthz and /debug/pprof on this address during and after the sweep (e.g. :8080)")
		cacheDemo = flag.Bool("cache", false, "demo the synthesis cache: cold vs warm Jellyfish synthesis and pod-memoized fat-tree synthesis, with hit ratios")
		cacheSize = flag.Int("cache-size", synthcache.DefaultCapacity, "synthesis-cache capacity (entries) for -cache")
	)
	prof := profile.AddFlags(flag.CommandLine)
	flag.Parse()

	stop, err := prof.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stop(); err != nil {
			log.Fatal(err)
		}
	}()

	if *ops != "" {
		srv, err := telemetry.StartOps(*ops, telemetry.Default)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("ops endpoint on http://%s (metrics, healthz, debug/pprof)", srv.Addr())
		defer srv.Close()
	}
	if *cacheDemo {
		runCacheDemo(*switches, *ports, *seed, *cacheSize)
		return
	}
	run(*switches, *ports, *random, *seed, *par, *bcube, *fattree)
}

// runCacheDemo measures the synthesis cache on the two workloads the
// repo's benchgate tracks: a warm-cache rehit on a Jellyfish fabric
// (fingerprint lookup vs full Algorithm 1+2 + TCAM compilation) and
// representative-pod stamping on a fat-tree (one pod pair enumerated,
// the rest stamped by pod-permutation automorphisms).
func runCacheDemo(switches, ports int, seed int64, capacity int) {
	if switches <= 0 {
		switches = 200
	}
	cache := synthcache.New(capacity)

	j, err := topology.NewJellyfish(topology.JellyfishConfig{
		Switches: switches, Ports: ports, Seed: seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	set := elp.ShortestAllN(j.Graph, j.Switches, 1)
	t0 := time.Now()
	if _, err := cache.Synthesize(j.Graph, set.Paths(), core.Options{}); err != nil {
		log.Fatal(err)
	}
	cold := time.Since(t0)
	t0 = time.Now()
	warm, err := cache.Synthesize(j.Graph, set.Paths(), core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	warmD := time.Since(t0)
	if !warm.Hit {
		log.Fatal("warm jellyfish request missed the cache")
	}
	fmt.Printf("jellyfish %d switches, %d ELP paths:\n", switches, set.Len())
	fmt.Printf("  cold synthesis  %12v\n", cold.Round(time.Microsecond))
	fmt.Printf("  warm cache hit  %12v  (%.0fx faster)\n",
		warmD.Round(time.Microsecond), float64(cold)/float64(warmD))

	const k = 8
	ft, err := topology.NewFatTree(k)
	if err != nil {
		log.Fatal(err)
	}
	t0 = time.Now()
	ftSet := elp.KBounce(ft.Graph, ft.Edges, 1, nil)
	if _, err := core.ClosSynthesize(ft.Graph, ftSet.Paths(), 1); err != nil {
		log.Fatal(err)
	}
	scratch := time.Since(t0)
	t0 = time.Now()
	memo, err := cache.ClosKBounce(ft.Graph, ft.Edges, 1)
	if err != nil {
		log.Fatal(err)
	}
	memoD := time.Since(t0)
	t0 = time.Now()
	if r, err := cache.ClosKBounce(ft.Graph, ft.Edges, 1); err != nil || !r.Hit {
		log.Fatalf("warm fat-tree request missed the cache (%v)", err)
	}
	rehitD := time.Since(t0)
	fmt.Printf("fat-tree k=%d (%d switches, %d ELP paths):\n",
		k, len(ft.Graph.Switches()), ftSet.Len())
	fmt.Printf("  from-scratch    %12v\n", scratch.Round(time.Millisecond))
	fmt.Printf("  pod-memoized    %12v  (%.1fx faster, stamped=%v)\n",
		memoD.Round(time.Millisecond), float64(scratch)/float64(memoD), memo.PodMemoized)
	fmt.Printf("  warm cache hit  %12v\n", rehitD.Round(time.Microsecond))

	st := cache.Stats()
	fmt.Printf("cache: %d hits / %d misses (hit ratio %.2f), %d pod-stamped, capacity %d\n",
		st.Hits, st.Misses, st.HitRatio(), st.PodStamped, capacity)
}

func run(switches, ports, random int, seed int64, par int, bcube, fattree bool) {
	if fattree {
		t := telemetry.NewTable("k", "Switches", "Hosts", "ELP", "Queues", "TCAM max/switch")
		for _, k := range []int{4, 6, 8} {
			ft, err := tagger.NewFatTree(k)
			if err != nil {
				log.Fatal(err)
			}
			set := tagger.ELPFromKBounce(ft.Graph, ft.Edges, 1)
			sys, err := tagger.SynthesizeFatTree(ft, set, 1)
			if err != nil {
				log.Fatal(err)
			}
			entries := tagger.CompressRules(sys.Rules.Rules())
			t.AddRow(k, len(ft.Graph.Switches()), len(ft.Hosts), set.Len(),
				sys.NumLosslessQueues(), tagger.MaxEntriesPerSwitch(entries))
		}
		fmt.Print(t.String())
		fmt.Println("bounce-counting needs 2 lossless queues at every fat-tree scale")
		return
	}

	if bcube {
		t := telemetry.NewTable("BCube(n,k)", "Servers", "Levels", "Tags")
		for _, c := range []struct{ n, k int }{{4, 1}, {2, 2}, {8, 1}} {
			tags, err := tagger.BCubeTags(c.n, c.k)
			if err != nil {
				log.Fatal(err)
			}
			servers := 1
			for i := 0; i <= c.k; i++ {
				servers *= c.n
			}
			t.AddRow(fmt.Sprintf("BCube(%d,%d)", c.n, c.k), servers, c.k+1, tags)
		}
		fmt.Print(t.String())
		fmt.Println("paper: a k-level BCube with default routing needs k tags")
		return
	}

	if switches > 0 {
		row, err := tagger.Table5CaseWith(switches, ports, random, seed, tagger.RunOptions{Par: par})
		if err != nil {
			log.Fatal(err)
		}
		res := tagger.Table5Result{Rows: []tagger.Table5Row{row}}
		fmt.Print(res.String())
		return
	}

	res, err := tagger.Table5()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.String())
	fmt.Println("paper Table 5: 3 lossless priorities suffice up to 2,000 switches")
}
